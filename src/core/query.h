#ifndef ASTREAM_CORE_QUERY_H_
#define ASTREAM_CORE_QUERY_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/clock.h"
#include "spe/aggregate.h"
#include "spe/row.h"
#include "spe/state.h"
#include "spe/window.h"

namespace astream::core {

/// A query-set: the set of queries (by slot index) interested in a tuple
/// (Sec. 2.1.1). Encoded as a bitset; slots of deleted queries are reused
/// for new queries (Fig. 3c).
using QuerySet = DynamicBitset;

/// Globally unique, never reused query identity. Slots (bit positions) are
/// reused; ids are not.
using QueryId = int64_t;

/// Comparison operators of generated selection predicates (Sec. 4.2.2).
enum class CmpOp : uint8_t { kLt, kGt, kEq, kLe, kGe };

const char* CmpOpName(CmpOp op);

/// One comparison `row[column] op constant`.
struct Predicate {
  int column = 1;
  CmpOp op = CmpOp::kLt;
  spe::Value constant = 0;

  bool Eval(const spe::Row& row) const {
    const spe::Value v = row.At(column);
    switch (op) {
      case CmpOp::kLt:
        return v < constant;
      case CmpOp::kGt:
        return v > constant;
      case CmpOp::kEq:
        return v == constant;
      case CmpOp::kLe:
        return v <= constant;
      case CmpOp::kGe:
        return v >= constant;
    }
    return false;
  }

  std::string ToString() const;

  bool operator==(const Predicate& o) const {
    return column == o.column && op == o.op && constant == o.constant;
  }
  bool operator<(const Predicate& o) const {
    if (column != o.column) return column < o.column;
    if (op != o.op) return op < o.op;
    return constant < o.constant;
  }
};

/// True iff all predicates hold (conjunction; empty list accepts all).
bool EvalConjunction(const std::vector<Predicate>& predicates,
                     const spe::Row& row);

/// Query families supported by AStream (Sec. 1.3): selections, windowed
/// aggregations, windowed joins, complex pipelines of cascaded binary
/// joins followed by an aggregation (Sec. 4.7), and flat n-ary multi-way
/// joins over 2..kMaxJoinDepth distinct input streams (DESIGN.md §15).
enum class QueryKind : uint8_t {
  kSelection,
  kAggregation,
  kJoin,
  kComplex,
  kMultiJoin,
};

const char* QueryKindName(QueryKind kind);

/// One input leg of a kMultiJoin query: which stream it reads, the join-key
/// columns (all legs must agree on arity; the engine currently requires the
/// key to be column 0, the row key), and per-leg selection predicates.
struct JoinInput {
  int stream = 0;
  std::vector<int> key = {0};
  std::vector<Predicate> select;

  bool operator==(const JoinInput& o) const {
    return stream == o.stream && key == o.key && select == o.select;
  }
};

/// Full description of one user query. Immutable once submitted.
struct QueryDescriptor {
  QueryKind kind = QueryKind::kSelection;
  /// Selection predicates on stream 0 (all kinds but kMultiJoin) and
  /// stream 1 (kJoin, kComplex); see SelectOn.
  std::vector<Predicate> select_a;
  std::vector<Predicate> select_b;
  /// Window of the aggregation / join stages (ignored for selections).
  spe::WindowSpec window;
  /// Aggregation (kAggregation and kComplex).
  spe::AggSpec agg;
  /// Number of chained join stages for kComplex (1..kMaxJoinDepth).
  int join_depth = 1;
  /// Window-lattice anchor override (kMinTimestamp = unset). Normally a
  /// query's windows are anchored at its creation-marker time; a query
  /// re-admitted after de-sharing (DESIGN.md §14) must instead stay on the
  /// lattice of its *original* creation so the dedicated pipeline's
  /// windows and the shared plan's windows tile without overlap. When set,
  /// the first window starts at AlignForward(marker, align_origin, slide).
  TimestampMs align_origin = kMinTimestamp;
  /// Input legs of a kMultiJoin query, in the user's declared order (which
  /// fixes the output column order). Empty for every other kind.
  std::vector<JoinInput> join_inputs;

  bool HasWindow() const { return kind != QueryKind::kSelection; }
  bool HasJoin() const {
    return kind == QueryKind::kJoin || kind == QueryKind::kComplex;
  }
  bool HasAgg() const {
    return kind == QueryKind::kAggregation || kind == QueryKind::kComplex;
  }

  /// True iff the query reads external stream `stream`: selections and
  /// aggregations read stream 0, joins and complex pipelines streams 0
  /// and 1, a kMultiJoin query the streams of its legs.
  bool UsesStream(int stream) const {
    switch (kind) {
      case QueryKind::kSelection:
      case QueryKind::kAggregation:
        return stream == 0;
      case QueryKind::kJoin:
      case QueryKind::kComplex:
        return stream == 0 || stream == 1;
      case QueryKind::kMultiJoin:
        return InputFor(stream) != nullptr;
    }
    return false;
  }
  /// The selection predicates that apply on `stream`: a kMultiJoin leg's
  /// own, else `select_a` on stream 0 and `select_b` on stream 1. Empty
  /// for a stream the query does not read.
  const std::vector<Predicate>& SelectOn(int stream) const;
  /// The kMultiJoin leg reading `stream`, or nullptr.
  const JoinInput* InputFor(int stream) const {
    for (const JoinInput& in : join_inputs) {
      if (in.stream == stream) return &in;
    }
    return nullptr;
  }

  std::string ToString() const;

  void Serialize(spe::StateWriter* writer) const;
  static QueryDescriptor Deserialize(spe::StateReader* reader);
};

/// Maximum join chain length of complex queries (Sec. 4.7: 1 <= n <= 5).
inline constexpr int kMaxJoinDepth = 5;

}  // namespace astream::core

#endif  // ASTREAM_CORE_QUERY_H_
