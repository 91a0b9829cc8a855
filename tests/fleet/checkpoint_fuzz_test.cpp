// Seeded damage to a valid multi-shard fleet checkpoint: byte flips,
// truncations and splices.  Two forms of every case:
//   * as written — the damaged file must be quarantined by its checksum;
//   * with the checksum trailer recomputed over the damaged body, so the
//     damage reaches the parser — which must either quarantine the file or
//     parse it cleanly, and every clean parse handed to
//     FleetCoordinator::recover must either restore or quarantine, where a
//     quarantine changes no coordinator state.
// Nothing may throw or crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "fleet/fleet_coordinator.hpp"
#include "serve/checkpoint.hpp"
#include "support/scratch_dir.hpp"

namespace stac::fleet {
namespace {

constexpr std::size_t kShards = 3;
constexpr std::size_t kCases = 400;

/// FNV-1a over the body, as the checkpoint format's trailer states it.
std::string trailer_for(std::string_view body) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : body) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return std::string("checksum ") + hex + '\n';
}

FleetConfig fuzz_config() {
  FleetConfig cfg;
  cfg.shards = kShards;
  cfg.shard.ring_capacity = 256;
  cfg.shard.estimator.min_completions = 1;
  cfg.planner.base_condition.timeout_primary = 1.0;
  cfg.planner.base_condition.timeout_collocated = 1.0;
  return cfg;
}

/// Everything recover() may touch, rendered exactly.
std::string state_of(const FleetCoordinator& fleet) {
  std::ostringstream out;
  out << std::hexfloat;
  const auto& t = fleet.totals();
  out << t.epochs << ' ' << t.replans << ' ' << t.stale_holds << ' '
      << t.deadline_misses << ' ' << t.recoveries << '\n';
  const serve::ControllerCheckpoint ckpt = fleet.make_checkpoint(0.0);
  out << ckpt.model_version << '\n';
  for (std::size_t i = 0; i < fleet.shard_count(); ++i)
    out << fleet.shard(i).active();
  for (const serve::WorkloadCheckpoint& w : ckpt.workloads)
    out << '\n' << w.timeout << ' ' << w.ewma_queue_delay << ' '
        << w.ewma_queue_time << ' ' << w.ewma_queue_seeded << ' '
        << w.ewma_service << ' ' << w.ewma_service_time << ' '
        << w.ewma_service_seeded << ' ' << w.arrivals << ' ' << w.completions
        << ' ' << w.timeouts;
  return out.str();
}

/// A checkpoint of three shards that each saw different traffic.
std::string valid_checkpoint_text(const std::string& path) {
  serve::ModelSnapshot<serve::ServingModel> models;
  FleetConfig cfg = fuzz_config();
  cfg.checkpoint.library_ref = "fuzz:library";
  cfg.checkpoint.library_size = 12;
  FleetCoordinator fleet(models, cfg);
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t i = 0; i <= 4 * s + 3; ++i) {
      serve::QueryEvent e;
      e.workload = static_cast<std::uint16_t>(i % 2);
      e.time = 0.1 * static_cast<double>(i + s);
      e.kind = serve::EventKind::kArrival;
      EXPECT_TRUE(fleet.shard(s).ingest().try_push(e));
      e.kind = i % 3 == 0 ? serve::EventKind::kTimeout
                          : serve::EventKind::kCompletion;
      e.queue_delay = 0.01 * static_cast<double>(i);
      e.service = 0.05 + 0.001 * static_cast<double>(s);
      EXPECT_TRUE(fleet.shard(s).ingest().try_push(e));
    }
  }
  (void)fleet.run_epoch(2.0);  // no model published: a hold
  serve::save_checkpoint(path, fleet.make_checkpoint(2.0));
  std::string text;
  EXPECT_TRUE(read_file(path, text));
  return text;
}

std::string damage(std::string text, Rng& rng) {
  if (text.empty()) return text;
  switch (rng.uniform_index(3)) {
    case 0: {  // flip: xor one byte with a nonzero mask
      const auto at = rng.uniform_index(text.size());
      text[at] = static_cast<char>(
          static_cast<unsigned char>(text[at]) ^
          static_cast<unsigned char>(1 + rng.uniform_index(255)));
      return text;
    }
    case 1:  // truncate
      return text.substr(0, rng.uniform_index(text.size()));
    default: {  // splice: insert a copy of one segment somewhere else
      const auto a = rng.uniform_index(text.size());
      const auto len = 1 + rng.uniform_index(text.size() - a);
      const std::string segment = text.substr(a, len);
      return text.insert(rng.uniform_index(text.size() + 1), segment);
    }
  }
}

class CheckpointFuzz : public ::testing::Test {
 protected:
  CheckpointFuzz()
      : path_(scratch_.path().string() + "/fleet.ckpt"),
        valid_(valid_checkpoint_text(path_)),
        body_(valid_.substr(0, valid_.rfind("checksum "))) {}

  serve::CheckpointLoadReport load(const std::string& text) {
    write_file_atomic(path_, text);
    serve::CheckpointLoadReport report;
    EXPECT_NO_THROW(report = serve::load_checkpoint(path_));
    EXPECT_NE(report.clean(), report.quarantined) << report.reason;
    return report;
  }

  const test_support::ScratchDir scratch_;
  const std::string path_;
  const std::string valid_;
  const std::string body_;
};

TEST_F(CheckpointFuzz, ValidFleetCheckpointRecoversToTheSameState) {
  const serve::CheckpointLoadReport loaded = load(valid_);
  ASSERT_TRUE(loaded.clean()) << loaded.reason;
  ASSERT_EQ(loaded.checkpoint->workloads.size(), 2 * kShards);
  EXPECT_EQ(valid_, body_ + trailer_for(body_));

  serve::ModelSnapshot<serve::ServingModel> models;
  FleetCoordinator fleet(models, fuzz_config());
  ASSERT_TRUE(fleet.recover(*loaded.checkpoint, 2.0).restored);
  // Every record lands on its own shard, in shard order.
  const serve::ControllerCheckpoint again = fleet.make_checkpoint(2.0);
  ASSERT_EQ(again.workloads.size(), loaded.checkpoint->workloads.size());
  for (std::size_t w = 0; w < again.workloads.size(); ++w) {
    const auto& a = again.workloads[w];
    const auto& b = loaded.checkpoint->workloads[w];
    EXPECT_EQ(a.arrivals, b.arrivals) << w;
    EXPECT_EQ(a.completions, b.completions) << w;
    EXPECT_EQ(a.timeouts, b.timeouts) << w;
    EXPECT_EQ(a.ewma_service, b.ewma_service) << w;
    EXPECT_EQ(a.timeout, b.timeout) << w;
  }
  EXPECT_EQ(fleet.totals().epochs, loaded.checkpoint->epoch);
}

TEST_F(CheckpointFuzz, DamagedFilesAreQuarantinedByTheChecksum) {
  Rng rng(20221);
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::string damaged = damage(valid_, rng);
    SCOPED_TRACE("case " + std::to_string(c));
    EXPECT_TRUE(load(damaged).quarantined);
  }
  // Splices after the checksum line: the trailer must end the file.
  EXPECT_TRUE(load(valid_ + body_.substr(body_.rfind("\nw ") + 1)).quarantined);
  std::string spaced = valid_;
  spaced.insert(spaced.size() - 1, " 0");
  EXPECT_TRUE(load(spaced).quarantined);
}

TEST_F(CheckpointFuzz, DamageBehindAValidChecksumParsesOrQuarantines) {
  Rng rng(20222);
  serve::ModelSnapshot<serve::ServingModel> models;
  std::size_t clean = 0, restored = 0;
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::string body = damage(body_, rng);
    SCOPED_TRACE("case " + std::to_string(c));
    const serve::CheckpointLoadReport loaded = load(body + trailer_for(body));
    if (!loaded.clean()) continue;
    ++clean;
    FleetCoordinator fleet(models, fuzz_config());
    const std::string before = state_of(fleet);
    serve::RecoveryReport rec;
    EXPECT_NO_THROW(rec = fleet.recover(*loaded.checkpoint, 2.0));
    EXPECT_NE(rec.restored, rec.quarantined) << rec.reason;
    if (rec.restored) {
      ++restored;
      EXPECT_EQ(fleet.totals().recoveries, 1u);
    } else {
      EXPECT_EQ(state_of(fleet), before);
      EXPECT_EQ(fleet.totals().recovery_quarantines, 1u);
    }
  }
  // The damage reached both outcomes of the parser.
  EXPECT_GT(clean, 0u);
  EXPECT_LT(clean, kCases);
  EXPECT_GT(restored, 0u);

  // Hand-made damage that parses but cannot restore: a short record count
  // (the parser reads the declared records only) and a negative timeout.
  for (const auto& [from, to] : {std::pair{std::string("workloads 6\n"),
                                           std::string("workloads 4\n")},
                                 std::pair{std::string("\nw 1 "),
                                           std::string("\nw -1 ")}}) {
    std::string body = body_;
    const auto at = body.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    body.replace(at, from.size(), to);
    const serve::CheckpointLoadReport loaded = load(body + trailer_for(body));
    ASSERT_TRUE(loaded.clean()) << loaded.reason;
    FleetCoordinator fleet(models, fuzz_config());
    const std::string before = state_of(fleet);
    EXPECT_TRUE(fleet.recover(*loaded.checkpoint, 2.0).quarantined) << to;
    EXPECT_EQ(state_of(fleet), before);
  }
}

}  // namespace
}  // namespace stac::fleet
