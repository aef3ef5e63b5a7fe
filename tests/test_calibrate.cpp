// Machine calibration: the probes must produce finite, positive machine
// parameters; the derived α/β and γ/β ratios must be consistent; and the
// text serialization must round-trip bit-exactly (the plan-cache key
// comparison depends on that).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/planner/calibrate.hpp"

namespace mtk {
namespace {

TEST(Calibrate, UnmeasuredCalibrationKeepsBandwidthOnlyObjective) {
  const Calibration cal;
  EXPECT_FALSE(cal.measured);
  EXPECT_DOUBLE_EQ(cal.latency_word_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(cal.flop_word_ratio(StorageFormat::kDense), 0.0);
  EXPECT_DOUBLE_EQ(cal.flop_word_ratio(StorageFormat::kCoo), 0.0);
  EXPECT_DOUBLE_EQ(cal.flop_word_ratio(StorageFormat::kCsf), 0.0);
}

TEST(Calibrate, ProbesProducePositiveFiniteParameters) {
  CalibrateOptions opts;
  // Small probes: this must stay fast under sanitizers in CI.
  opts.probe_words = index_t{1} << 16;
  opts.small_copies = 512;
  opts.kernel_dim = 16;
  opts.kernel_rank = 4;
  opts.repetitions = 2;
  const Calibration cal = calibrate_machine(opts);
  EXPECT_TRUE(cal.measured);
  for (const double v :
       {cal.alpha_seconds, cal.beta_seconds_per_word,
        cal.dense_seconds_per_flop, cal.coo_seconds_per_flop,
        cal.csf_seconds_per_flop}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
  EXPECT_TRUE(std::isfinite(cal.latency_word_ratio()));
  EXPECT_GT(cal.latency_word_ratio(), 0.0);
  for (const StorageFormat f :
       {StorageFormat::kDense, StorageFormat::kCoo, StorageFormat::kCsf}) {
    EXPECT_GT(cal.flop_word_ratio(f), 0.0);
    EXPECT_DOUBLE_EQ(cal.flop_word_ratio(f),
                     cal.seconds_per_flop(f) / cal.beta_seconds_per_word);
  }
}

TEST(Calibrate, SerializationRoundTripsBitExactly) {
  Calibration cal;
  cal.alpha_seconds = 1.0 / 3.0 * 1e-6;  // not representable in decimal
  cal.beta_seconds_per_word = 7.0 / 11.0 * 1e-9;
  cal.dense_seconds_per_flop = 1.0e-10;
  cal.coo_seconds_per_flop = 1.3e-10;
  cal.csf_seconds_per_flop = 1.0 / 7.0 * 1e-9;
  cal.measured = true;

  std::ostringstream out;
  write_calibration(out, cal);
  const std::string line = out.str();
  ASSERT_EQ(line.compare(0, 12, "calibration "), 0);

  Calibration parsed;
  ASSERT_TRUE(parse_calibration(line.substr(12), parsed));
  EXPECT_TRUE(parsed == cal);
}

TEST(Calibrate, MalformedPayloadsRejectedWithoutSideEffects) {
  Calibration cal;
  cal.alpha_seconds = 42.0;
  for (const char* payload :
       {"", "1",
        // Too few fields.
        "1 0x1p-3 0x1p-3 0x1p-3 0x1p-3",
        // Too many: the 9-double layout that carried per-variant rates.
        "1 0x1p-3 0x1p-3 0x1p-3 0x1p-3 0x1p-3 0x1p-3 0x1p-3 0x1p-3 0x1p-3",
        "2 1 1 1 1 1",
        "1 0x1p-3 junk 0x1p-3 0x1p-3 0x1p-3",
        "yes 0x1p-3 0x1p-3 0x1p-3 0x1p-3 0x1p-3"}) {
    EXPECT_FALSE(parse_calibration(payload, cal)) << payload;
    EXPECT_DOUBLE_EQ(cal.alpha_seconds, 42.0) << payload;
  }
}

}  // namespace
}  // namespace mtk
