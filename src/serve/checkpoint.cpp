#include "serve/checkpoint.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"

namespace stac::serve {

namespace {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string checksum_hex(std::string_view body) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << fnv1a64(body);
  return os.str();
}

std::string serialize(const ControllerCheckpoint& c) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "stac-ckpt v" << kCheckpointVersion << '\n';
  out << "epoch " << c.epoch << ' ' << c.time << '\n';
  out << "seeds " << c.condition_seed << ' ' << c.predictor_seed << '\n';
  out << "model " << c.model_version << '\n';
  // The library reference is a path; quote-free but whitespace would break
  // the line format, so reject it at write time rather than corrupt reads.
  STAC_REQUIRE_MSG(c.library_ref.find_first_of(" \t\n") == std::string::npos,
                   "library_ref must not contain whitespace");
  out << "library " << (c.library_ref.empty() ? "-" : c.library_ref) << ' '
      << c.library_size << '\n';
  out << "totals " << c.replans << ' ' << c.stale_holds << ' '
      << c.deadline_misses << '\n';
  out << "workloads " << c.workloads.size() << '\n';
  for (const WorkloadCheckpoint& w : c.workloads) {
    out << "w " << w.timeout << ' ' << w.ewma_queue_delay << ' '
        << w.ewma_queue_time << ' ' << (w.ewma_queue_seeded ? 1 : 0) << ' '
        << w.ewma_service << ' ' << w.ewma_service_time << ' '
        << (w.ewma_service_seeded ? 1 : 0) << ' ' << w.arrivals << ' '
        << w.completions << ' ' << w.timeouts << '\n';
  }
  return out.str();
}

/// Parse the body (everything before the checksum trailer).  Throws
/// ContractViolation with a reason on damage.
ControllerCheckpoint parse(const std::string& body) {
  std::istringstream in(body);
  ControllerCheckpoint c;
  std::string tag, magic, version;
  STAC_REQUIRE_MSG(static_cast<bool>(in >> magic >> version) &&
                       magic == "stac-ckpt",
                   "not a stac checkpoint");
  STAC_REQUIRE_MSG(version == "v" + std::to_string(kCheckpointVersion),
                   "unsupported checkpoint version " << version);
  STAC_REQUIRE_MSG(
      static_cast<bool>(in >> tag >> c.epoch >> c.time) && tag == "epoch",
      "truncated epoch line");
  STAC_REQUIRE_MSG(static_cast<bool>(in >> tag >> c.condition_seed >>
                                     c.predictor_seed) &&
                       tag == "seeds",
                   "truncated seeds line");
  STAC_REQUIRE_MSG(
      static_cast<bool>(in >> tag >> c.model_version) && tag == "model",
      "truncated model line");
  STAC_REQUIRE_MSG(static_cast<bool>(in >> tag >> c.library_ref >>
                                     c.library_size) &&
                       tag == "library",
                   "truncated library line");
  STAC_REQUIRE_MSG(static_cast<bool>(in >> tag >> c.replans >>
                                     c.stale_holds >> c.deadline_misses) &&
                       tag == "totals",
                   "truncated totals line");
  std::size_t n = 0;
  STAC_REQUIRE_MSG(
      static_cast<bool>(in >> tag >> n) && tag == "workloads",
      "truncated workloads line");
  STAC_REQUIRE_MSG(n <= 1024, "implausible workload count");
  c.workloads.resize(n);
  for (WorkloadCheckpoint& w : c.workloads) {
    int qs = 0, ss = 0;
    STAC_REQUIRE_MSG(
        static_cast<bool>(in >> tag >> w.timeout >> w.ewma_queue_delay >>
                          w.ewma_queue_time >> qs >> w.ewma_service >>
                          w.ewma_service_time >> ss >> w.arrivals >>
                          w.completions >> w.timeouts) &&
            tag == "w",
        "truncated workload record");
    w.ewma_queue_seeded = qs != 0;
    w.ewma_service_seeded = ss != 0;
  }
  return c;
}

}  // namespace

std::string checkpoint_defect(const ControllerCheckpoint& checkpoint,
                              std::size_t workloads) {
  if (checkpoint.workloads.size() != workloads)
    return "checkpoint describes " +
           std::to_string(checkpoint.workloads.size()) +
           " workload records; live state holds " + std::to_string(workloads);
  for (std::size_t w = 0; w < workloads; ++w) {
    const double t = checkpoint.workloads[w].timeout;
    if (!std::isfinite(t) || t < 0.0)
      return "workload record " + std::to_string(w) +
             " timeout is not finite and non-negative";
  }
  return {};
}

std::string checkpoint_path(const std::string& directory) {
  STAC_REQUIRE(!directory.empty());
  return directory.back() == '/' ? directory + "controller.ckpt"
                                 : directory + "/controller.ckpt";
}

void save_checkpoint(const std::string& path,
                     const ControllerCheckpoint& checkpoint) {
  FaultInjector::global().check("serve.checkpoint.write");
  const std::string body = serialize(checkpoint);
  write_file_atomic(path, body + "checksum " + checksum_hex(body) + '\n');
  obs::count("serve.checkpoint.writes");
}

CheckpointLoadReport load_checkpoint(const std::string& path) {
  CheckpointLoadReport report;
  try {
    FaultInjector::global().check("serve.checkpoint.load");
  } catch (const InjectedFault& e) {
    report.quarantined = true;
    report.reason = e.what();
    obs::count("serve.checkpoint.quarantined");
    return report;
  }

  std::string text;
  if (!read_file(path, text)) {
    report.quarantined = true;
    report.reason = "cannot open " + path;
    return report;
  }
  // Split off the trailer line: "checksum <hex>\n" must end the file.
  const std::string tail_marker = "checksum ";
  const std::size_t tail = text.rfind(tail_marker);
  if (tail == std::string::npos || text.empty() || text.back() != '\n') {
    report.quarantined = true;
    report.reason = "truncated checkpoint (no checksum trailer)";
    obs::count("serve.checkpoint.quarantined");
    return report;
  }
  // The trailer is exactly the marker, the body's checksum and a newline:
  // bytes after it are damage too, not padding to skip.
  const std::string body = text.substr(0, tail);
  if (text.compare(tail, std::string::npos,
                   tail_marker + checksum_hex(body) + '\n') != 0) {
    report.quarantined = true;
    report.reason = "checksum mismatch (corrupt checkpoint)";
    obs::count("serve.checkpoint.quarantined");
    return report;
  }
  try {
    report.checkpoint = parse(body);
  } catch (const ContractViolation& e) {
    report.quarantined = true;
    report.reason = e.what();
    report.checkpoint.reset();
    obs::count("serve.checkpoint.quarantined");
  }
  return report;
}

}  // namespace stac::serve
