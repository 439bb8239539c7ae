#include "src/core/strategies.hpp"

#include <stdexcept>
#include <utility>

#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/rec_expand.hpp"
#include "src/util/text.hpp"

namespace ooctree::core {

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kPostOrderMinIo: return "PostOrderMinIO";
    case Strategy::kOptMinMem: return "OptMinMem";
    case Strategy::kRecExpand: return "RecExpand";
    case Strategy::kFullRecExpand: return "FullRecExpand";
  }
  throw std::invalid_argument("strategy_name: unknown strategy");
}

Strategy strategy_from_name(const std::string& name) {
  const std::string s = util::to_lower(name);
  if (s == "postorder" || s == "postorderminio") return Strategy::kPostOrderMinIo;
  if (s == "optminmem") return Strategy::kOptMinMem;
  if (s == "recexpand") return Strategy::kRecExpand;
  if (s == "full" || s == "fullrecexpand") return Strategy::kFullRecExpand;
  throw std::invalid_argument("unknown strategy '" + name +
                              "' (postorder | optminmem | recexpand | full)");
}

std::vector<Strategy> all_strategies() {
  return {Strategy::kOptMinMem, Strategy::kRecExpand, Strategy::kPostOrderMinIo,
          Strategy::kFullRecExpand};
}

std::vector<Strategy> cheap_strategies() {
  return {Strategy::kOptMinMem, Strategy::kRecExpand, Strategy::kPostOrderMinIo};
}

StrategyOutcome run_strategy(Strategy s, const Tree& tree, Weight memory) {
  StrategyOutcome out;
  out.strategy = s;
  switch (s) {
    case Strategy::kPostOrderMinIo:
      out.schedule = postorder_minio(tree, memory).schedule;
      break;
    case Strategy::kOptMinMem:
      out.schedule = opt_minmem(tree).schedule;
      break;
    case Strategy::kRecExpand:
    case Strategy::kFullRecExpand: {
      // RecExpand ends with the FiF evaluation of its schedule under this
      // same bound; reuse it instead of simulating again.
      RecExpandResult r =
          s == Strategy::kRecExpand ? rec_expand2(tree, memory) : full_rec_expand(tree, memory);
      out.schedule = std::move(r.schedule);
      out.evaluation = std::move(r.evaluation);
      return out;
    }
  }
  out.evaluation = simulate_fif(tree, out.schedule, memory);
  return out;
}

}  // namespace ooctree::core
