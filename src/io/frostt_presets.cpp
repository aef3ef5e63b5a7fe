#include "src/io/frostt_presets.hpp"

namespace mtk {

const std::vector<FrosttPreset>& frostt_presets() {
  // Extents keep the published shape ratios at ~1/4000 the element count;
  // densities are chosen so each preset lands in the 1e5-nonzero range a
  // benchmark iteration can afford.
  static const std::vector<FrosttPreset> presets = {
      {"nell-2", {3023, 2296, 7205}, 4.0e-6, 1.1},
      {"delicious", {5330, 17262, 24803}, 6.0e-8, 1.8},
      {"amazon", {4821, 17818, 236}, 1.0e-5, 1.3},
      // One long output mode against a modest nonzero count. The single
      // source of truth for the kernel-smoke tensor (tools/kernel_smoke,
      // bench_sparse_mttkrp's all-modes fixture, the Release ctest, and
      // the CI smoke all use this entry).
      {"long-mode", {40000, 400, 300}, 2.0e-5, 1.5},
  };
  return presets;
}

const FrosttPreset* find_frostt_preset(const std::string& name) {
  for (const FrosttPreset& p : frostt_presets()) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

FrosttPreset scale_frostt_preset(const FrosttPreset& preset, double scale) {
  MTK_CHECK(scale > 0.0, "preset scale must be > 0, got ", scale);
  FrosttPreset scaled = preset;
  double extent_ratio = 1.0;  // actual prod(dims) change after clamping
  for (index_t& d : scaled.dims) {
    const index_t grown = std::max<index_t>(
        2, static_cast<index_t>(std::llround(static_cast<double>(d) * scale)));
    extent_ratio *= static_cast<double>(grown) / static_cast<double>(d);
    d = grown;
  }
  // Keep expected nnz ~ scale * original: nnz = density * prod(dims), so
  // divide the density by the per-value extent growth beyond `scale`.
  scaled.density =
      std::min(0.5, preset.density * scale / std::max(extent_ratio, 1e-300));
  return scaled;
}

SparseTensor make_frostt_like(const FrosttPreset& preset,
                              std::uint64_t seed) {
  Rng rng(seed);
  return SparseTensor::random_sparse_skewed(preset.dims, preset.density,
                                            preset.skew, rng);
}

}  // namespace mtk
