#include "cli/plan.h"

#include <memory>
#include <utility>

#include "common/string_util.h"
#include "hierarchy/vgh_parser.h"

namespace hprl::cli {

Result<Plan> BuildPlan(const LinkageSpec& spec, const RawCsv* raw_r,
                       const RawCsv* raw_s) {
  Plan plan;
  auto schema = std::make_shared<Schema>();

  for (const AttrSpec& attr : spec.attrs) {
    switch (attr.type) {
      case AttrType::kNumeric: {
        auto vgh = attr.vgh_file.empty()
                       ? MakeEquiWidthVgh(attr.lo, attr.leaf_width,
                                          attr.fanouts)
                       : LoadNumericVgh(attr.vgh_file);
        if (!vgh.ok()) return vgh.status();
        plan.hierarchies.push_back(
            std::make_shared<const Vgh>(std::move(vgh).value()));
        schema->AddNumeric(attr.name);
        break;
      }
      case AttrType::kCategorical: {
        auto vgh = LoadCategoricalVgh(attr.vgh_file);
        if (!vgh.ok()) return vgh.status();
        auto shared = std::make_shared<const Vgh>(std::move(vgh).value());
        schema->AddCategorical(attr.name, shared->MakeDomain());
        plan.hierarchies.push_back(shared);
        break;
      }
      case AttrType::kText:
        schema->AddText(attr.name);
        plan.hierarchies.push_back(nullptr);
        break;
    }
  }

  // Extra (non-QID) columns named by the spec: collect their categories from
  // both inputs so ids are consistent. Without raw inputs the extras are
  // skipped — the streaming path has no batch anonymizer to feed them to.
  auto add_extra = [&](const std::string& name) -> Status {
    if (name.empty() || schema->FindIndex(name) >= 0) return Status::OK();
    if (raw_r == nullptr || raw_s == nullptr) return Status::OK();
    auto domain = std::make_shared<CategoryDomain>();
    for (const RawCsv* raw : {raw_r, raw_s}) {
      int col = raw->FindColumn(name);
      if (col < 0) {
        return Status::NotFound("column missing from CSV: " + name);
      }
      for (const auto& row : raw->rows) domain->GetOrAdd(row[col]);
    }
    schema->AddCategorical(name, domain);
    return Status::OK();
  };
  HPRL_RETURN_IF_ERROR(add_extra(spec.class_attr));
  HPRL_RETURN_IF_ERROR(add_extra(spec.sensitive_attr));
  plan.schema = schema;

  // Match rule over the QIDs.
  for (size_t i = 0; i < spec.attrs.size(); ++i) {
    AttrRule r;
    r.attr_index = static_cast<int>(i);
    r.type = spec.attrs[i].type;
    r.theta = spec.attrs[i].theta;
    r.name = spec.attrs[i].name;
    if (plan.hierarchies[i] != nullptr) {
      SetBoundFromHierarchy(*plan.hierarchies[i], &r);
    }
    plan.rule.attrs.push_back(std::move(r));
  }

  // Anonymizer configuration.
  plan.anon_cfg.k = spec.k;
  for (size_t i = 0; i < spec.attrs.size(); ++i) {
    plan.anon_cfg.qid_attrs.push_back(static_cast<int>(i));
    plan.anon_cfg.hierarchies.push_back(plan.hierarchies[i]);
  }
  if (!spec.class_attr.empty()) {
    plan.anon_cfg.class_attr = plan.schema->FindIndex(spec.class_attr);
  }
  if (!spec.sensitive_attr.empty()) {
    plan.anon_cfg.sensitive_attr = plan.schema->FindIndex(spec.sensitive_attr);
    plan.anon_cfg.l_diversity = spec.l_diversity;
  }
  return plan;
}

smc::SmcConfig SmcConfigFromSpec(const LinkageSpec& spec) {
  smc::SmcConfig config;
  config.key_bits = spec.key_bits;
  config.max_retries = spec.smc_retries;
  config.pack_pairs = spec.smc_pack;
  config.test_seed = spec.smc_seed;
  config.material_dir = spec.material_dir;
  config.offline_pairs = spec.offline_pairs;
  return config;
}

Result<Value> TypedField(const std::string& field, const Plan& plan,
                         int attr_index, const std::string& where) {
  const AttributeDef& attr = plan.schema->attribute(attr_index);
  switch (attr.type) {
    case AttrType::kNumeric: {
      auto v = ParseDouble(field);
      if (!v.ok()) {
        return Status::InvalidArgument(
            StrFormat("%s: bad numeric '%s' for %s", where.c_str(),
                      field.c_str(), attr.name.c_str()));
      }
      // The hierarchy root is the public bound the packed SMC exchange
      // sizes its slots from: a value outside it is refused here, before
      // any party sees it.
      Value value = Value::Numeric(*v);
      if (attr_index < plan.rule.num_attrs() &&
          !plan.rule.attrs[attr_index].InBound(value)) {
        const AttrRule& rule = plan.rule.attrs[attr_index];
        return Status::InvalidArgument(StrFormat(
            "%s: %s value '%s' is outside its hierarchy's root [%g, %g)",
            where.c_str(), attr.name.c_str(), field.c_str(), rule.lo,
            rule.hi));
      }
      return value;
    }
    case AttrType::kCategorical: {
      int32_t id = attr.domain->Find(field);
      if (id < 0) {
        return Status::NotFound(
            StrFormat("%s: '%s' is not a leaf of %s's hierarchy",
                      where.c_str(), field.c_str(), attr.name.c_str()));
      }
      return Value::Category(id);
    }
    case AttrType::kText:
      return Value::Text(field);
  }
  return Status::Internal("unreachable attr type");
}

Result<Table> Typed(const RawCsv& raw, const Plan& plan,
                    const std::string& which) {
  const Schema& schema = *plan.schema;
  std::vector<int> col(schema.num_attributes());
  for (int i = 0; i < schema.num_attributes(); ++i) {
    col[i] = raw.FindColumn(schema.attribute(i).name);
    if (col[i] < 0) {
      return Status::NotFound(which + ": column missing from CSV: " +
                              schema.attribute(i).name);
    }
  }
  Table table(plan.schema);
  table.Reserve(static_cast<int64_t>(raw.rows.size()));
  for (size_t r = 0; r < raw.rows.size(); ++r) {
    Record rec(schema.num_attributes());
    for (int i = 0; i < schema.num_attributes(); ++i) {
      auto v = TypedField(raw.rows[r][col[i]], plan, i,
                          StrFormat("%s row %zu", which.c_str(), r + 1));
      if (!v.ok()) return v.status();
      rec[i] = std::move(v).value();
    }
    table.AppendUnchecked(std::move(rec));
  }
  return table;
}

}  // namespace hprl::cli
