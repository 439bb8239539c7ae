// Adversarial gallery: walks through the paper's counterexample families
// interactively, printing the trees, the annotated schedules and the
// step-by-step memory profiles — a guided tour of Sections 4.3/4.4.
//
//   $ ./adversarial_gallery [--memory 8] [--levels 3] [--k 3]
#include <cstdio>
#include <exception>

#include "src/core/fif_simulator.hpp"
#include "src/core/minio_postorder.hpp"
#include "src/core/minmem_optimal.hpp"
#include "src/core/traversal.hpp"
#include "src/treegen/paper_trees.hpp"
#include "src/util/args.hpp"

namespace {

using namespace ooctree;
using core::Weight;

void show(const char* title, const treegen::PaperInstance& inst) {
  std::printf("==== %s (M = %lld) ====\n%s", title, (long long)inst.memory,
              inst.tree.to_string().c_str());
  if (!inst.annotated_schedule.empty()) {
    std::printf("paper's schedule:");
    for (const core::NodeId v : inst.annotated_schedule) std::printf(" %d", v);
    const auto profile = core::memory_profile(inst.tree, inst.annotated_schedule);
    std::printf("\nno-I/O memory profile:");
    for (const Weight p : profile) std::printf(" %lld", (long long)p);
    const auto fif = core::simulate_fif(inst.tree, inst.annotated_schedule, inst.memory);
    std::printf("\nFiF under M: %lld I/O units\n", (long long)fif.io_volume);
  }
  const auto opt = core::opt_minmem(inst.tree);
  const auto opt_io = core::simulate_fif(inst.tree, opt.schedule, inst.memory);
  std::printf("OptMinMem: peak %lld, FiF I/O %lld\n", (long long)opt.peak,
              (long long)opt_io.io_volume);
  const auto post = core::postorder_minio(inst.tree, inst.memory);
  std::printf("PostOrderMinIO: %lld I/O units\n\n", (long long)post.predicted_io);
}

int run(int argc, char** argv) {
  const auto args = util::Args::parse(argc, argv, {"memory", "levels", "k"});
  const Weight m = args.get_int("memory", 8);
  const auto levels = static_cast<std::size_t>(args.get_int("levels", 3));
  const Weight k = args.get_int("k", 3);

  show("Figure 2(a): postorders pay per leaf, optimal pays 1",
       treegen::fig2a(levels, m % 2 == 0 ? m : m + 1));
  show("Figure 2(b): lowest peak forces extra I/O", treegen::fig2b());
  show("Figure 2(c): peak-optimal switching pays k(k+1) vs 2k", treegen::fig2c(k));
  show("Figure 6: expansion fixes OptMinMem", treegen::fig6());
  show("Figure 7: sometimes only the postorder wins", treegen::fig7());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
