#include "obs/run_report.hpp"

#include <algorithm>
#include <cmath>

namespace hetcomm::obs {

namespace {

/// Nearest-rank quantile of an already-sorted sample vector.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.count = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  s.p50 = sorted_quantile(sorted, 0.50);
  s.p99 = sorted_quantile(sorted, 0.99);
  s.min = sorted.front();
  s.max = sorted.back();
  return s;
}

double LogLinearHistogram::quantile(double q) const noexcept {
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))));
  std::int64_t seen = 0;
  int bin = 0;
  for (; bin < kBins - 1; ++bin) {
    seen += bins_[bin];
    if (seen >= rank) break;
  }
  double value = max_;
  if (bin == 0) {
    value = min_;
  } else if (bin < kBins - 1) {
    const int octave = (bin - 1) / kSubBins;
    const int sub = (bin - 1) % kSubBins;
    value = std::ldexp(1.0 + (sub + 0.5) / kSubBins, kMinExponent + octave);
  }
  return std::clamp(value, min_, max_);
}

Summary LogLinearHistogram::summary() const {
  Summary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.mean = sum_ / static_cast<double>(count_);
  s.p50 = quantile(0.50);
  s.p99 = quantile(0.99);
  s.min = min_;
  s.max = max_;
  return s;
}

JsonValue Summary::to_json() const {
  JsonValue out = JsonValue::object();
  for_each_field([&out](const char* name, auto v) { out.set(name, v); });
  return out;
}

void fill_from_engine_metrics(RunReport& report, const EngineMetrics& metrics) {
  // Per-phase makespan contributions: the deltas between consecutive
  // phase-end clocks, which sum to the run's makespan exactly.
  report.phases.clear();
  double share_total = 0.0;
  const std::vector<double>& ends = metrics.phase_makespan;
  for (std::size_t p = 0; p < ends.size(); ++p) {
    const double delta = ends[p] - (p == 0 ? 0.0 : ends[p - 1]);
    PhaseStat stat;
    stat.phase = static_cast<int>(p);
    stat.makespan = summarize({&delta, 1});
    share_total += stat.makespan.mean;
    report.phases.push_back(stat);
  }
  if (share_total > 0.0) {
    for (PhaseStat& stat : report.phases) {
      stat.share = stat.makespan.mean / share_total;
    }
  }

  report.traffic.clear();
  for (int p = 0; p < EngineMetrics::kPaths; ++p) {
    for (int r = 0; r < EngineMetrics::kProtos; ++r) {
      if (metrics.msgs[p][r] == 0 && metrics.msg_bytes[p][r] == 0) continue;
      TrafficStat t;
      t.path = metrics.path_name(p);
      t.proto = to_string(static_cast<Protocol>(r));
      t.messages = metrics.msgs[p][r];
      t.bytes = metrics.msg_bytes[p][r];
      report.traffic.push_back(std::move(t));
    }
  }
  report.total_messages = metrics.total_messages();
  report.total_bytes = metrics.total_bytes();

  report.resources.clear();
  for (int i = 0; i < kNumSimResources; ++i) {
    const Histogram h = metrics.wait_histogram(i);
    if (h.count() == 0 && metrics.occupancy_seconds[i] == 0.0) continue;
    ResourceStat r;
    r.resource = to_string(static_cast<SimResource>(i));
    r.waits = h.count();
    r.wait_mean = h.mean();
    r.wait_p50 = h.quantile(0.50);
    r.wait_p99 = h.quantile(0.99);
    r.wait_max = h.max();
    r.occupancy_seconds = metrics.occupancy_seconds[i];
    report.resources.push_back(std::move(r));
  }

  report.nic.clear();
  const int lanes = std::max(1, metrics.nic_lanes);
  for (std::size_t n = 0; n < metrics.nic_bytes.size(); ++n) {
    if (metrics.nic_bytes[n] == 0) continue;
    NicStat stat;
    stat.nic = static_cast<int>(n);
    stat.node = static_cast<int>(n) / lanes;
    stat.lane = static_cast<int>(n) % lanes;
    stat.bytes_injected = metrics.nic_bytes[n];
    if (n < metrics.nic_striped_bytes.size()) {
      stat.striped_bytes = metrics.nic_striped_bytes[n];
    }
    report.nic.push_back(stat);
  }

  report.copies.clear();
  for (int d = 0; d < 2; ++d) {
    for (int s = 0; s < 2; ++s) {
      if (metrics.copy_count[d][s] == 0) continue;
      CopyStat c;
      c.dir = to_string(static_cast<CopyDir>(d));
      c.sharing = s == 0 ? "solo" : "shared";
      c.count = metrics.copy_count[d][s];
      c.bytes = metrics.copy_bytes[d][s];
      c.seconds = metrics.copy_seconds[d][s];
      report.copies.push_back(std::move(c));
    }
  }

  report.packs = metrics.packs;
  report.pack_bytes = metrics.pack_bytes;
  report.pack_seconds = metrics.pack_seconds;

  report.faults = FaultStat{};
  if (metrics.any_faults()) {
    report.faults.retries = metrics.fault_retries;
    report.faults.failovers = metrics.fault_failovers;
    report.faults.degraded_msgs = metrics.fault_degraded;
    report.faults.retry_seconds = metrics.fault_retry_seconds;
    for (int p = 0; p < EngineMetrics::kPaths; ++p) {
      if (metrics.fault_degraded_seconds[p] == 0.0) continue;
      report.faults.degraded.push_back(
          {metrics.path_name(p), metrics.fault_degraded_seconds[p]});
    }
    if (std::any_of(metrics.fault_rail_retries.begin(),
                    metrics.fault_rail_retries.end(),
                    [](std::int64_t r) { return r != 0; })) {
      report.faults.rail_retries = metrics.fault_rail_retries;
    }
  }
}

JsonValue RunReport::metrics_json() const {
  JsonValue out = JsonValue::object();
  for (const TrafficStat& t : traffic) {
    out.set(label("msgs", {{"path", t.path}, {"proto", t.proto}}), t.messages);
    out.set(label("bytes", {{"path", t.path}, {"proto", t.proto}}), t.bytes);
  }
  for (const ResourceStat& r : resources) {
    JsonValue wait = JsonValue::object();
    wait.set("count", r.waits);
    wait.set("mean", r.wait_mean);
    wait.set("p50", r.wait_p50);
    wait.set("p99", r.wait_p99);
    wait.set("max", r.wait_max);
    out.set(label("queue_wait", {{"resource", r.resource}}), std::move(wait));
    out.set(label("occupancy_seconds", {{"resource", r.resource}}),
            r.occupancy_seconds);
  }
  for (const NicStat& n : nic) {
    out.set(label("bytes_injected", {{"nic", std::to_string(n.nic)}}),
            n.bytes_injected);
    if (n.striped_bytes != 0) {
      out.set(label("bytes_injected", {{"nic", std::to_string(n.nic)},
                                       {"stripe", "striped"}}),
              n.striped_bytes);
    }
  }
  for (const CopyStat& c : copies) {
    out.set(label("copies", {{"dir", c.dir}, {"sharing", c.sharing}}),
            c.count);
    out.set(label("copy_bytes", {{"dir", c.dir}, {"sharing", c.sharing}}),
            c.bytes);
    out.set(label("copy_seconds", {{"dir", c.dir}, {"sharing", c.sharing}}),
            c.seconds);
  }
  if (packs > 0) {
    out.set("packs", packs);
    out.set("pack_bytes", pack_bytes);
    out.set("pack_seconds", pack_seconds);
  }
  return out;
}

JsonValue RunReport::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("name", name);
  out.set("engine", engine);
  out.set("reps", reps);
  out.set("sampled_reps", 1);
  out.set("jobs", jobs);
  out.set("seed", static_cast<std::int64_t>(seed));
  out.set("noise_sigma", noise_sigma);
  out.set("ranks", ranks);
  out.set("nodes", nodes);

  out.set("makespan", makespan.to_json());
  out.set("max_avg", max_avg);

  JsonValue phase_array = JsonValue::array();
  for (const PhaseStat& p : phases) {
    JsonValue entry = JsonValue::object();
    entry.set("phase", p.phase);
    entry.set("makespan", p.makespan.to_json());
    entry.set("share", p.share);
    phase_array.push_back(std::move(entry));
  }
  out.set("phases", std::move(phase_array));

  JsonValue traffic_array = JsonValue::array();
  for (const TrafficStat& t : traffic) {
    JsonValue entry = JsonValue::object();
    entry.set("path", t.path);
    entry.set("proto", t.proto);
    entry.set("messages", t.messages);
    entry.set("bytes", t.bytes);
    traffic_array.push_back(std::move(entry));
  }
  out.set("traffic", std::move(traffic_array));

  JsonValue totals = JsonValue::object();
  totals.set("messages", total_messages);
  totals.set("bytes", total_bytes);
  out.set("totals", std::move(totals));

  JsonValue resource_array = JsonValue::array();
  for (const ResourceStat& r : resources) {
    JsonValue entry = JsonValue::object();
    entry.set("resource", r.resource);
    entry.set("waits", r.waits);
    entry.set("wait_mean", r.wait_mean);
    entry.set("wait_p50", r.wait_p50);
    entry.set("wait_p99", r.wait_p99);
    entry.set("wait_max", r.wait_max);
    entry.set("occupancy_seconds", r.occupancy_seconds);
    resource_array.push_back(std::move(entry));
  }
  out.set("contention", std::move(resource_array));

  JsonValue nic_array = JsonValue::array();
  for (const NicStat& n : nic) {
    JsonValue entry = JsonValue::object();
    entry.set("nic", n.nic);
    entry.set("node", n.node);
    entry.set("lane", n.lane);
    entry.set("bytes_injected", n.bytes_injected);
    if (n.striped_bytes != 0) entry.set("striped_bytes", n.striped_bytes);
    nic_array.push_back(std::move(entry));
  }
  out.set("nic", std::move(nic_array));

  JsonValue copy_array = JsonValue::array();
  for (const CopyStat& c : copies) {
    JsonValue entry = JsonValue::object();
    entry.set("dir", c.dir);
    entry.set("sharing", c.sharing);
    entry.set("count", c.count);
    entry.set("bytes", c.bytes);
    entry.set("seconds", c.seconds);
    copy_array.push_back(std::move(entry));
  }
  out.set("copies", std::move(copy_array));

  JsonValue pack_obj = JsonValue::object();
  pack_obj.set("count", packs);
  pack_obj.set("bytes", pack_bytes);
  pack_obj.set("seconds", pack_seconds);
  out.set("packs", std::move(pack_obj));

  // Emitted only for degraded runs: fault-free reports keep the exact
  // pre-fault document shape.
  if (has_faults()) {
    JsonValue fault_obj = JsonValue::object();
    fault_obj.set("retries", faults.retries);
    fault_obj.set("failovers", faults.failovers);
    fault_obj.set("degraded_msgs", faults.degraded_msgs);
    fault_obj.set("retry_seconds", faults.retry_seconds);
    JsonValue degraded_array = JsonValue::array();
    for (const FaultPathStat& d : faults.degraded) {
      JsonValue entry = JsonValue::object();
      entry.set("path", d.path);
      entry.set("degraded_seconds", d.degraded_seconds);
      degraded_array.push_back(std::move(entry));
    }
    fault_obj.set("degraded", std::move(degraded_array));
    if (!faults.rail_retries.empty()) {
      JsonValue rail_array = JsonValue::array();
      for (std::size_t r = 0; r < faults.rail_retries.size(); ++r) {
        JsonValue entry = JsonValue::object();
        entry.set("rail", static_cast<int>(r));
        entry.set("retries", faults.rail_retries[r]);
        rail_array.push_back(std::move(entry));
      }
      fault_obj.set("rail_retries", std::move(rail_array));
    }
    out.set("faults", std::move(fault_obj));
  }

  out.set("wall_seconds", wall_seconds);
  out.set("reps_per_second", reps_per_second);

  JsonValue worker_array = JsonValue::array();
  for (const WorkerStat& w : workers) {
    JsonValue entry = JsonValue::object();
    entry.set("worker", w.worker);
    entry.set("reps", w.reps);
    entry.set("busy_seconds", w.busy_seconds);
    worker_array.push_back(std::move(entry));
  }
  out.set("workers", std::move(worker_array));

  out.set("metrics", metrics_json());
  return out;
}

JsonValue make_metrics_document(std::span<const RunReport> reports) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kMetricsSchema);
  JsonValue array = JsonValue::array();
  for (const RunReport& r : reports) array.push_back(r.to_json());
  doc.set("reports", std::move(array));
  return doc;
}

}  // namespace hetcomm::obs
