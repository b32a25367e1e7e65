#include "src/scenario/minimize.h"

#include <cassert>
#include <optional>
#include <utility>
#include <vector>

namespace secpol {

namespace {

int CountBlock(const std::vector<Stmt>& block);

int CountStmt(const Stmt& stmt) {
  return 1 + CountBlock(stmt.then_body) + CountBlock(stmt.else_body) + CountBlock(stmt.body);
}

int CountBlock(const std::vector<Stmt>& block) {
  int total = 0;
  for (const Stmt& stmt : block) {
    total += CountStmt(stmt);
  }
  return total;
}

// `measure` summed over every expression of `block`.
template <typename Measure>
int SumExprs(const std::vector<Stmt>& block, const Measure& measure) {
  int total = 0;
  for (const Stmt& stmt : block) {
    if (stmt.kind == Stmt::Kind::kAssign) {
      total += measure(stmt.expr);
    }
    if (stmt.kind == Stmt::Kind::kIf || stmt.kind == Stmt::Kind::kWhile) {
      total += measure(stmt.cond);
    }
    total += SumExprs(stmt.then_body, measure) + SumExprs(stmt.else_body, measure) +
             SumExprs(stmt.body, measure);
  }
  return total;
}

int VariableLeaves(const Expr& expr) {
  if (expr.num_operands() == 0) {
    return expr.kind() == Expr::Kind::kConst ? 0 : 1;
  }
  int total = 0;
  for (int i = 0; i < expr.num_operands(); ++i) {
    total += VariableLeaves(expr.operand(i));
  }
  return total;
}

// What every applicable edit strictly lowers, compared in order: the size,
// then the variable leaves. The second term is for the zeroing edits, which
// turn `x = v;` into `x = 0;` (and `if (v)` into `if (0)`) at equal size.
[[maybe_unused]] std::pair<int, int> Progress(const SourceProgram& program) {
  return {ProgramSize(program),
          SumExprs(program.body, [](const Expr& expr) { return VariableLeaves(expr); })};
}

// The structure-aware edits, addressed by the DFS pre-order index of the
// statement they touch.
enum class EditKind {
  kErase,        // delete the statement
  kSpliceThen,   // if/while: replace by then_body / body, spliced in place
  kSpliceElse,   // if: replace by else_body, spliced in place
  kExprZero,     // assign: expr := 0
  kCondZero,     // if/while: cond := 0
  kExprChild0,   // assign: expr := operand(0)
  kExprChild1,   // assign: expr := operand(1)
};

constexpr EditKind kAllEdits[] = {
    EditKind::kErase,     EditKind::kSpliceThen, EditKind::kSpliceElse, EditKind::kExprZero,
    EditKind::kCondZero,  EditKind::kExprChild0, EditKind::kExprChild1,
};

// Whether `edit` applies to `stmt` at all (and would strictly lower Progress).
bool EditApplies(const Stmt& stmt, EditKind edit) {
  switch (edit) {
    case EditKind::kErase:
      return true;
    case EditKind::kSpliceThen:
      return stmt.kind == Stmt::Kind::kIf || stmt.kind == Stmt::Kind::kWhile;
    case EditKind::kSpliceElse:
      return stmt.kind == Stmt::Kind::kIf && !stmt.else_body.empty();
    case EditKind::kExprZero:
      return stmt.kind == Stmt::Kind::kAssign && stmt.expr.kind() != Expr::Kind::kConst;
    case EditKind::kCondZero:
      return (stmt.kind == Stmt::Kind::kIf || stmt.kind == Stmt::Kind::kWhile) &&
             stmt.cond.kind() != Expr::Kind::kConst;
    case EditKind::kExprChild0:
      return stmt.kind == Stmt::Kind::kAssign && stmt.expr.num_operands() >= 1;
    case EditKind::kExprChild1:
      return stmt.kind == Stmt::Kind::kAssign && stmt.expr.num_operands() >= 2;
  }
  return false;
}

// Applies `edit` to the statement with DFS pre-order index `target` inside
// `block`. `next` carries the running DFS index. Returns true once applied.
bool ApplyInBlock(std::vector<Stmt>* block, int target, EditKind edit, int* next) {
  for (std::size_t i = 0; i < block->size(); ++i) {
    Stmt& stmt = (*block)[i];
    if (*next == target) {
      ++*next;
      if (!EditApplies(stmt, edit)) {
        return false;
      }
      switch (edit) {
        case EditKind::kErase:
          block->erase(block->begin() + static_cast<std::ptrdiff_t>(i));
          return true;
        case EditKind::kSpliceThen: {
          std::vector<Stmt> arm =
              stmt.kind == Stmt::Kind::kWhile ? std::move(stmt.body) : std::move(stmt.then_body);
          block->erase(block->begin() + static_cast<std::ptrdiff_t>(i));
          block->insert(block->begin() + static_cast<std::ptrdiff_t>(i),
                        std::make_move_iterator(arm.begin()), std::make_move_iterator(arm.end()));
          return true;
        }
        case EditKind::kSpliceElse: {
          std::vector<Stmt> arm = std::move(stmt.else_body);
          block->erase(block->begin() + static_cast<std::ptrdiff_t>(i));
          block->insert(block->begin() + static_cast<std::ptrdiff_t>(i),
                        std::make_move_iterator(arm.begin()), std::make_move_iterator(arm.end()));
          return true;
        }
        case EditKind::kExprZero:
          stmt.expr = Expr::Const(0);
          return true;
        case EditKind::kCondZero:
          stmt.cond = Expr::Const(0);
          return true;
        case EditKind::kExprChild0:
          stmt.expr = stmt.expr.operand(0);
          return true;
        case EditKind::kExprChild1:
          stmt.expr = stmt.expr.operand(1);
          return true;
      }
      return false;
    }
    ++*next;
    if (ApplyInBlock(&stmt.then_body, target, edit, next) ||
        ApplyInBlock(&stmt.else_body, target, edit, next) ||
        ApplyInBlock(&stmt.body, target, edit, next)) {
      return true;
    }
    // A sub-block signals "target was beyond me" by returning false with
    // *next already advanced past its statements; keep scanning.
    if (*next > target) {
      return false;
    }
  }
  return false;
}

// The candidate `edit` applied at `target`, or nullopt when inapplicable.
std::optional<SourceProgram> MakeCandidate(const SourceProgram& program, int target,
                                           EditKind edit) {
  SourceProgram candidate = program;
  int next = 0;
  if (!ApplyInBlock(&candidate.body, target, edit, &next)) {
    return std::nullopt;
  }
  return candidate;
}

}  // namespace

int CountStmts(const SourceProgram& program) { return CountBlock(program.body); }

int ProgramSize(const SourceProgram& program) {
  return CountBlock(program.body) +
         SumExprs(program.body, [](const Expr& expr) { return expr.NodeCount(); });
}

SourceProgram MinimizeWitness(const SourceProgram& program, const WitnessPredicate& predicate,
                              const MinimizeOptions& options, MinimizeStats* stats) {
  assert(predicate(program));
  MinimizeStats local;
  local.initial_size = ProgramSize(program);

  SourceProgram best = program;
  bool shrunk = true;
  while (shrunk && local.candidates_tried < options.max_candidates) {
    shrunk = false;
    const int positions = CountStmts(best);
    for (int target = 0; target < positions && !shrunk; ++target) {
      for (EditKind edit : kAllEdits) {
        if (local.candidates_tried >= options.max_candidates) {
          break;
        }
        std::optional<SourceProgram> candidate = MakeCandidate(best, target, edit);
        if (!candidate.has_value()) {
          continue;
        }
        // Every applicable edit strictly lowers Progress, so acceptance always
        // makes progress and the outer fixpoint terminates.
        assert(Progress(*candidate) < Progress(best));
        ++local.candidates_tried;
        if (predicate(*candidate)) {
          ++local.candidates_accepted;
          best = std::move(*candidate);
          shrunk = true;
          break;  // positions shifted; restart the scan on the new program
        }
      }
    }
  }

  local.final_size = ProgramSize(best);
  if (stats != nullptr) {
    *stats = local;
  }
  return best;
}

}  // namespace secpol
