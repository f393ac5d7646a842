#include "core/query.h"

namespace astream::core {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kEq:
      return "==";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Predicate::ToString() const {
  return "col" + std::to_string(column) + " " + CmpOpName(op) + " " +
         std::to_string(constant);
}

bool EvalConjunction(const std::vector<Predicate>& predicates,
                     const spe::Row& row) {
  for (const Predicate& p : predicates) {
    if (!p.Eval(row)) return false;
  }
  return true;
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSelection:
      return "selection";
    case QueryKind::kAggregation:
      return "aggregation";
    case QueryKind::kJoin:
      return "join";
    case QueryKind::kComplex:
      return "complex";
    case QueryKind::kMultiJoin:
      return "multijoin";
  }
  return "?";
}

const std::vector<Predicate>& QueryDescriptor::SelectOn(int stream) const {
  static const std::vector<Predicate> kNone;
  if (kind == QueryKind::kMultiJoin) {
    const JoinInput* in = InputFor(stream);
    return in != nullptr ? in->select : kNone;
  }
  if (!UsesStream(stream)) return kNone;
  return stream == 0 ? select_a : select_b;
}

std::string QueryDescriptor::ToString() const {
  std::string s = QueryKindName(kind);
  if (HasWindow()) s += " " + window.ToString();
  if (HasAgg()) s += " " + agg.ToString();
  if (kind == QueryKind::kComplex) {
    s += " joins=" + std::to_string(join_depth);
  }
  s += " where_a={";
  for (size_t i = 0; i < select_a.size(); ++i) {
    if (i > 0) s += " AND ";
    s += select_a[i].ToString();
  }
  s += "}";
  if (HasJoin()) {
    s += " where_b={";
    for (size_t i = 0; i < select_b.size(); ++i) {
      if (i > 0) s += " AND ";
      s += select_b[i].ToString();
    }
    s += "}";
  }
  if (kind == QueryKind::kMultiJoin) {
    s += " inputs=[";
    for (size_t i = 0; i < join_inputs.size(); ++i) {
      if (i > 0) s += ", ";
      s += "s" + std::to_string(join_inputs[i].stream) + "{";
      for (size_t j = 0; j < join_inputs[i].select.size(); ++j) {
        if (j > 0) s += " AND ";
        s += join_inputs[i].select[j].ToString();
      }
      s += "}";
    }
    s += "]";
  }
  return s;
}

namespace {

void SerializePredicates(const std::vector<Predicate>& predicates,
                         spe::StateWriter* writer) {
  writer->WriteU64(predicates.size());
  for (const Predicate& p : predicates) {
    writer->WriteI64(p.column);
    writer->WriteI64(static_cast<int64_t>(p.op));
    writer->WriteI64(p.constant);
  }
}

std::vector<Predicate> DeserializePredicates(spe::StateReader* reader) {
  std::vector<Predicate> out;
  const uint64_t n = reader->ReadU64();
  for (uint64_t i = 0; i < n && reader->Ok(); ++i) {
    Predicate p;
    p.column = static_cast<int>(reader->ReadI64());
    p.op = static_cast<CmpOp>(reader->ReadI64());
    p.constant = reader->ReadI64();
    out.push_back(p);
  }
  return out;
}

}  // namespace

void QueryDescriptor::Serialize(spe::StateWriter* writer) const {
  writer->WriteI64(static_cast<int64_t>(kind));
  SerializePredicates(select_a, writer);
  SerializePredicates(select_b, writer);
  writer->WriteI64(static_cast<int64_t>(window.type));
  writer->WriteI64(window.length);
  writer->WriteI64(window.slide);
  writer->WriteI64(window.gap);
  writer->WriteI64(static_cast<int64_t>(agg.kind));
  writer->WriteI64(agg.column);
  writer->WriteI64(join_depth);
  writer->WriteI64(align_origin);
  writer->WriteU64(join_inputs.size());
  for (const JoinInput& in : join_inputs) {
    writer->WriteI64(in.stream);
    writer->WriteU64(in.key.size());
    for (int k : in.key) writer->WriteI64(k);
    SerializePredicates(in.select, writer);
  }
}

QueryDescriptor QueryDescriptor::Deserialize(spe::StateReader* reader) {
  QueryDescriptor d;
  d.kind = static_cast<QueryKind>(reader->ReadI64());
  d.select_a = DeserializePredicates(reader);
  d.select_b = DeserializePredicates(reader);
  d.window.type = static_cast<spe::WindowType>(reader->ReadI64());
  d.window.length = reader->ReadI64();
  d.window.slide = reader->ReadI64();
  d.window.gap = reader->ReadI64();
  d.agg.kind = static_cast<spe::AggKind>(reader->ReadI64());
  d.agg.column = static_cast<int>(reader->ReadI64());
  d.join_depth = static_cast<int>(reader->ReadI64());
  d.align_origin = reader->ReadI64();
  const uint64_t inputs = reader->ReadU64();
  for (uint64_t i = 0; i < inputs && reader->Ok(); ++i) {
    JoinInput in;
    in.stream = static_cast<int>(reader->ReadI64());
    in.key.clear();
    const uint64_t arity = reader->ReadU64();
    for (uint64_t k = 0; k < arity && reader->Ok(); ++k) {
      in.key.push_back(static_cast<int>(reader->ReadI64()));
    }
    in.select = DeserializePredicates(reader);
    d.join_inputs.push_back(std::move(in));
  }
  return d;
}

}  // namespace astream::core
