// Tests for core::selection_churn: selection stability across reseeds.
#include <gtest/gtest.h>

#include "census/series.hpp"
#include "core/selection.hpp"

namespace tass::core {
namespace {

Selection selection_of(std::initializer_list<const char*> prefixes) {
  Selection selection;
  for (const char* text : prefixes) {
    selection.prefixes.push_back(net::Prefix::parse_or_throw(text));
  }
  return selection;
}

TEST(SelectionChurn, CountsKeptAddedRemoved) {
  const Selection older =
      selection_of({"10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"});
  const Selection newer =
      selection_of({"20.0.0.0/8", "30.0.0.0/8", "40.0.0.0/8",
                    "50.0.0.0/8"});
  const SelectionChurn churn = selection_churn(older, newer);
  EXPECT_EQ(churn.kept, 2u);
  EXPECT_EQ(churn.removed, 1u);
  EXPECT_EQ(churn.added, 2u);
  EXPECT_DOUBLE_EQ(churn.jaccard(), 2.0 / 5.0);
}

TEST(SelectionChurn, IdenticalAndEmptySelections) {
  const Selection a = selection_of({"10.0.0.0/8", "20.0.0.0/8"});
  EXPECT_DOUBLE_EQ(selection_churn(a, a).jaccard(), 1.0);
  const Selection empty;
  EXPECT_DOUBLE_EQ(selection_churn(empty, empty).jaccard(), 1.0);
  const SelectionChurn churn = selection_churn(empty, a);
  EXPECT_EQ(churn.added, 2u);
  EXPECT_DOUBLE_EQ(churn.jaccard(), 0.0);
}

TEST(SelectionChurn, OrderInsensitive) {
  const Selection a = selection_of({"20.0.0.0/8", "10.0.0.0/8"});
  const Selection b = selection_of({"10.0.0.0/8", "20.0.0.0/8"});
  EXPECT_DOUBLE_EQ(selection_churn(a, b).jaccard(), 1.0);
}

TEST(SelectionChurn, ReseededSelectionsAreHighlyStable) {
  // The paper's premise: the host-over-prefix distribution is stable, so
  // month-6 reseeding should reproduce most of the month-0 selection.
  census::TopologyParams topo_params;
  topo_params.seed = 77;
  topo_params.l_prefix_count = 800;
  const auto topo = census::generate_topology(topo_params);
  census::SeriesParams params;
  params.months = 7;
  params.host_scale = 0.004;
  params.seed = 5;
  const auto series =
      census::CensusSeries::generate(topo, census::Protocol::kHttp, params);

  SelectionParams sel;
  sel.phi = 0.95;
  const auto rank0 = rank_by_density(series.month(0), PrefixMode::kMore);
  const auto rank_last = rank_by_density(series.month(6), PrefixMode::kMore);
  const auto sel0 = select_by_density(rank0, sel);
  const auto sel6 = select_by_density(rank_last, sel);

  // Most churn happens at the phi threshold where near-tie prefixes flip
  // in and out; the bulk of the selection is stable.
  const SelectionChurn churn = selection_churn(sel0, sel6);
  EXPECT_GT(churn.jaccard(), 0.75);
  EXPECT_LT(churn.added, sel6.k() / 4);
  EXPECT_LT(churn.removed, sel0.k() / 4);
}

}  // namespace
}  // namespace tass::core
