#ifndef HPRL_LINKAGE_MATCH_RULE_H_
#define HPRL_LINKAGE_MATCH_RULE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "hierarchy/vgh.h"

namespace hprl {

/// Matching condition for one attribute: records agree on the attribute when
/// its normalized distance is at most `theta` (paper §II decision rule).
struct AttrRule {
  int attr_index = -1;  ///< column in the original tables
  AttrType type = AttrType::kCategorical;
  double theta = 0.05;  ///< matching threshold θ_i
  /// Normalization factor: numeric range (paper: the VGH root range, e.g.
  /// 98 for WorkHrs [1-99)); 1.0 for categorical (Hamming already in {0,1})
  /// and for text (θ counts raw edit operations).
  double norm = 1.0;
  /// Public domain bound, derived from the QID's hierarchy and so known to
  /// every party: a numeric value lies in [lo, hi) (the VGH root), a
  /// categorical id in [0, categories) (the VGH leaf count). The packed SMC
  /// exchange sizes its slots from it; a rule without one (HasBound false)
  /// runs the scalar exchange.
  double lo = 0;
  double hi = 0;
  int64_t categories = 0;
  std::string name;  ///< display only

  bool HasBound() const {
    if (type == AttrType::kNumeric) return hi > lo;
    return type == AttrType::kCategorical && categories > 0;
  }

  /// True when `v` lies inside the public bound (always, without one).
  bool InBound(const Value& v) const;
};

/// Sets `rule`'s public bound from the QID's hierarchy, and for a numeric
/// QID also its normalization factor (the root range).
void SetBoundFromHierarchy(const Vgh& vgh, AttrRule* rule);

/// The classifier supplied by the querying party: a record pair matches when
/// every attribute rule is satisfied (conjunction, paper dr(r,s)).
struct MatchRule {
  std::vector<AttrRule> attrs;

  int num_attrs() const { return static_cast<int>(attrs.size()); }
};

/// Builds the rule for the first `num_qids` Adult QIDs with a uniform theta.
/// `schema` is the data schema; hierarchies provide the public bounds and
/// numeric normalization factors. Fails when a QID name is missing from the
/// schema.
Result<MatchRule> MakeUniformRule(const SchemaPtr& schema,
                                  const std::vector<std::string>& qid_names,
                                  const std::vector<VghPtr>& hierarchies,
                                  int num_qids, double theta);

/// Normalized distance between two original values under `rule`.
double AttrDistance(const Value& a, const Value& b, const AttrRule& rule);

/// True when (r, s) satisfies every attribute rule — the plaintext decision
/// rule dr(r,s). This is what the SMC step computes securely.
bool RecordsMatch(const Record& r, const Record& s, const MatchRule& rule);

}  // namespace hprl

#endif  // HPRL_LINKAGE_MATCH_RULE_H_
