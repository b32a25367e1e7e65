// The secpol command-line driver, as a library so tests can drive it.
//
// Commands (the binary is src/tools/secpol_main.cc):
//
//   secpol run <file.fl> --input=1,2,3
//       Run the program under the plain interpreter.
//   secpol monitor <file.fl> --allow=0,2 --input=1,2,3 [--time-safe|--high-water]
//       Run it under a surveillance mechanism.
//   secpol check <file.fl> --allow=0,2 [--grid=lo:hi] [--time] [--mechanism=M]
//                [--threads=N] [--deadline-ms=N] [--fault-spec=S] [--retries=N]
//                [--sweep-mode=point|class] [--exec-mode=interpreted|compiled]
//                [--metrics-out=F] [--trace-out=F]
//       Exhaustive soundness verdict, run as one job through ExecuteJob;
//       M in {surveillance, mprime, highwater, bare, static, residual,
//       table}. --threads=N evaluates the grid on N worker
//       threads (0 = one per hardware thread, 1 = serial); the verdict and
//       counterexample are identical at every thread count.
//       --sweep-mode=class evaluates one tracked representative per policy
//       equivalence class and covers certified classes by copy (DESIGN.md
//       §14); completed output is byte-identical to the point sweep.
//       --exec-mode=compiled runs surveillance-family mechanisms as
//       instrumented bytecode (DESIGN.md §15); output is byte-identical to
//       the interpreted path.
//   secpol audit <file.fl> --allow=0,2 [--allow2=0,1] [--mechanism2=M2]
//                [every flag of check]
//       All six checks in one pass over a shared outcome table: the report
//       is the six standalone reports concatenated, the exit code the worst
//       section's.
//   secpol batch <manifest.json> [--pretty] [--metrics-out=F] [--trace-out=F]
//       Run a manifest of jobs through the scheduler and result cache and
//       print the JSON batch report (also spelled `secpol --batch`).
//   secpol serve --socket=<path> [--tcp=<port>] [--concurrency=N]
//                [--cache-capacity=N] [--max-inflight=N] [--max-frame-bytes=N]
//                [--max-json-depth=N] [--defaults=<defaults.json>]
//       The persistent checking daemon; drains on SIGTERM/SIGINT.
//   secpol submit (--socket=<path> | --tcp=<port>) (<job.json> | --job=<json> |
//                 --job-file=<file> | --ping | --stats | --reload-defaults=<json> |
//                 --reload-quotas=<json>) [--print-report] [--pretty]
//       The daemon's client.
//   secpol fuzz [--seed=N] [--iterations=N] [--budget-ms=N] [--threads=N]
//               [--out-dir=DIR] [--replay=witness.json]
//       Coverage-guided disagreement fuzzer over the seeded corpus. Exit 0
//       for a clean run, 2 when a true disagreement was found; --out-dir
//       writes self-contained witness JSONs; --replay re-evaluates one
//       witness file instead of fuzzing.
//   secpol analyze <file.fl> --allow=0,2 [--monotone]
//       Static information-flow report (per-halt release labels).
//   secpol instrument <file.fl> --allow=0,2
//       Print the literal Section 3 instrumented flowchart.
//   secpol advise <file.fl> --allow=0,2 [--grid=lo:hi] [--threads=N] [--deadline-ms=N]
//       Transform-advisor report.
//   secpol optimize <file.fl>
//       Simplify expressions / fold constant tests; print the result.
//   secpol decompile <file.fl>
//       Structure the flowchart back into flowlang (audited round trip).
//   secpol dot <file.fl>
//       Graphviz DOT of the flowchart.
//   secpol bytecode <file.fl>
//       Compiled bytecode listing.
//
// Each verb takes only the flags listed for it; any other flag exits 1 and
// names the flag. Job flags (--allow, --grid, --threads, ...) are parsed by
// the job-field table that manifests and wire frames use
// (src/service/manifest.h).

#ifndef SECPOL_SRC_TOOLS_CLI_H_
#define SECPOL_SRC_TOOLS_CLI_H_

#include <string>
#include <vector>

namespace secpol {

// Runs one CLI invocation. `args` excludes the program name. Output and
// diagnostics are appended to *out / *err. Returns the process exit code
// (0 success, 1 user error such as an unknown flag, 2 verdict failure for
// `check`; see each verb above for the rest).
int RunCli(const std::vector<std::string>& args, std::string* out, std::string* err);

}  // namespace secpol

#endif  // SECPOL_SRC_TOOLS_CLI_H_
