#include "serve/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <thread>
#endif

namespace hetcomm::serve::chaos {
namespace {

using obs::JsonValue;

// ---------------------------------------------------------------------
// Request builders (the serve_load hot-set idiom: a few random patterns
// cycled across the stream so the plan cache matters).
// ---------------------------------------------------------------------

constexpr int kHotPatterns = 4;
constexpr const char* kStrategies[] = {"split+MD", "split+DD"};
/// Storm lines replaced by malformed ones, and storm lines carrying a
/// deadline_ms drawn from {0, 10000} (deterministic expiry vs never).
constexpr double kMalformedFraction = 0.10;
constexpr double kDeadlineFraction = 0.20;

std::string pattern_spec(int pattern) {
  return "{\"random\": {\"msgs_per_gpu\": 4, \"bytes\": 4096, \"seed\": " +
         std::to_string(pattern + 1) + "}}";
}

struct RequestSpec {
  std::string id;
  int pattern = 0;
  const char* strategy = nullptr;  ///< null = let the advisor pick
  int reps = 2;
  std::uint64_t seed = 1;
  std::int64_t deadline_ms = -1;  ///< -1 = no deadline field
  std::string faults;             ///< "" = unfaulted
};

std::string render_request(const RequestSpec& spec) {
  std::string line = "{\"id\": \"" + spec.id +
                     "\", \"machine\": \"lassen\", \"nodes\": 2"
                     ", \"pattern\": " +
                     pattern_spec(spec.pattern);
  if (spec.strategy != nullptr) {
    line += std::string(", \"strategy\": \"") + spec.strategy +
            "\", \"rank\": false";
  }
  line += ", \"reps\": " + std::to_string(spec.reps) +
          ", \"seed\": " + std::to_string(spec.seed);
  if (spec.deadline_ms >= 0) {
    line += ", \"deadline_ms\": " + std::to_string(spec.deadline_ms);
  }
  if (!spec.faults.empty()) {
    line += ", \"faults\": \"" + spec.faults + "\"";
  }
  line += "}";
  return line;
}

// ---------------------------------------------------------------------
// Reply bookkeeping.
// ---------------------------------------------------------------------

/// Volatile reply fields: anything that depends on wall time, queue
/// state, or cache warmth rather than on the query itself.  Everything
/// else must be bit-identical to a one-shot service.
bool volatile_key(const std::string& key) {
  return key == "latency_seconds" || key == "timing" || key == "cache" ||
         key == "compile_seconds" || key == "retry_after_ms";
}

std::string stable_dump(const JsonValue& reply) {
  JsonValue strip = JsonValue::object();
  for (const auto& member : reply.members()) {
    if (!volatile_key(member.first)) strip.set(member.first, member.second);
  }
  return strip.dump_string(0);
}

struct Tally {
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t control = 0;
  std::int64_t degraded = 0;
  std::int64_t predict_only = 0;
  std::map<std::string, std::int64_t> codes;

  void observe(const JsonValue& reply, bool was_control) {
    answered += 1;
    if (was_control) {
      control += 1;
    }
    if (reply.at("ok").as_bool()) {
      ok += 1;
      if (!was_control) {
        if (const JsonValue* d = reply.find("degraded");
            d != nullptr && d->as_bool()) {
          degraded += 1;
        } else if (reply.find("measured") == nullptr) {
          predict_only += 1;
        }
      }
    } else {
      errors += 1;
      codes[reply.at("error_code").as_string()] += 1;
    }
  }
};

// ---------------------------------------------------------------------
// The harness proper.
// ---------------------------------------------------------------------

struct Harness {
  const ChaosOptions& opts;
  ChaosReport report;
  std::mt19937_64 rng;
  Tally tally;  ///< everything sent to the stormed service

  explicit Harness(const ChaosOptions& o) : opts(o), rng(o.seed) {
    report.seed = o.seed;
  }

  void fail(std::string what) { report.violations.push_back(std::move(what)); }

  PhaseStats& phase(const std::string& name) {
    report.phases.push_back({name, 0, 0, 0, 0});
    return report.phases.back();
  }

  struct StreamCost {
    double qps = 0.0;          ///< wall-clock requests per second
    double cpu_seconds = 0.0;  ///< process CPU time spent serving them
  };

  // Baseline / post-storm: well-formed stream in non-shedding chunks,
  // every reply checked against the one-shot reference.
  StreamCost steady_stream(Service& svc, Service& oneshot, const char* name,
                           std::uint64_t id_base) {
    PhaseStats& ph = phase(name);
    std::vector<std::string> lines;
    for (int q = 0; q < opts.requests; ++q) {
      RequestSpec spec;
      spec.id = std::string(name) + "-" + std::to_string(q);
      spec.pattern = q % kHotPatterns;
      if (q % 2 == 0) spec.strategy = kStrategies[(q / 2) % 2];
      spec.reps = opts.reps;
      spec.seed = id_base + static_cast<std::uint64_t>(q);
      lines.push_back(render_request(spec));
    }
    std::size_t chunk = static_cast<std::size_t>(opts.window);
    if (opts.max_queue > 0) chunk = std::min(chunk, opts.max_queue);
    const auto t0 = std::chrono::steady_clock::now();
    const std::clock_t cpu0 = std::clock();
    for (std::size_t at = 0; at < lines.size(); at += chunk) {
      const std::size_t end = std::min(lines.size(), at + chunk);
      const std::vector<std::string> window(
          lines.begin() + static_cast<std::ptrdiff_t>(at),
          lines.begin() + static_cast<std::ptrdiff_t>(end));
      ph.sent += static_cast<std::int64_t>(window.size());
      tally.sent += static_cast<std::int64_t>(window.size());
      for (const std::string& raw : svc.handle_window(window)) {
        const JsonValue reply = JsonValue::parse(raw);
        tally.observe(reply, false);
        ph.answered += 1;
        if (!reply.at("ok").as_bool()) {
          ph.errors += 1;
          fail(std::string(name) + ": unexpected error reply: " +
               reply.at("error").as_string());
          continue;
        }
        ph.ok += 1;
      }
    }
    const std::clock_t cpu1 = std::clock();
    const auto t1 = std::chrono::steady_clock::now();
    // Bit-identity against the one-shot reference, outside the timed
    // region so the reference's work does not pollute qps.
    for (const std::string& line : lines) {
      const JsonValue mine_doc = JsonValue::parse(svc.handle_line(line));
      tally.sent += 1;
      tally.observe(mine_doc, false);
      const std::string mine = stable_dump(mine_doc);
      const std::string ref =
          stable_dump(JsonValue::parse(oneshot.handle_line(line)));
      if (mine != ref) {
        report.mismatched_replies += 1;
        if (report.mismatched_replies == 1) {
          fail(std::string(name) + ": reply diverged from one-shot: " + mine +
               " vs " + ref);
        }
      }
    }
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    return {seconds > 0.0 ? static_cast<double>(opts.requests) / seconds : 0.0,
            static_cast<double>(cpu1 - cpu0) / CLOCKS_PER_SEC};
  }

  // Storm: one window at storm_factor x max_queue with malformed lines,
  // FaultAbort patterns, and a randomized deadline mix folded in, plus a
  // control line to prove stats stay reachable under overload.
  void storm(Service& svc) {
    PhaseStats& ph = phase("storm");
    const std::size_t bound = std::max<std::size_t>(opts.max_queue, 1);
    const std::size_t n =
        bound * static_cast<std::size_t>(std::max(opts.storm_factor, 1));
    std::vector<std::string> malformed = builtin_malformed_lines();
    malformed.insert(malformed.end(), opts.malformed_extra.begin(),
                     opts.malformed_extra.end());
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::vector<std::string> lines;
    std::vector<std::string> storm_ids;
    std::map<std::string, std::int64_t> deadline_zero;  // id -> expected
    std::size_t bad = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (coin(rng) < kMalformedFraction) {
        lines.push_back(malformed[bad++ % malformed.size()]);
        continue;
      }
      RequestSpec spec;
      spec.id = "storm-" + std::to_string(k);
      spec.pattern = static_cast<int>(k) % kHotPatterns;
      if (k % 3 == 0) spec.strategy = kStrategies[k % 2];
      spec.reps = opts.reps;
      spec.seed = 1000 + k;
      if (!opts.faults_path.empty() && coin(rng) < 0.2) {
        spec.faults = opts.faults_path;
        spec.strategy = kStrategies[k % 2];  // faulted lanes never coalesce
      }
      if (coin(rng) < kDeadlineFraction) {
        spec.deadline_ms = coin(rng) < 0.5 ? 0 : 10000;
        if (spec.deadline_ms == 0) deadline_zero[spec.id] = 1;
      }
      storm_ids.push_back(spec.id);
      lines.push_back(render_request(spec));
    }
    lines.push_back("{\"id\": \"storm-stats\", \"cmd\": \"stats\"}");
    ph.sent = static_cast<std::int64_t>(lines.size());
    tally.sent += ph.sent;

    std::map<std::string, int> seen;
    bool stats_answered = false;
    const std::vector<std::string> replies = svc.handle_window(lines);
    for (const std::string& raw : replies) {
      const JsonValue reply = JsonValue::parse(raw);
      const JsonValue* id = reply.find("id");
      const bool is_stats = id != nullptr && !id->is_null() &&
                            id->as_string() == "storm-stats";
      tally.observe(reply, is_stats);
      ph.answered += 1;
      if (reply.at("ok").as_bool()) {
        ph.ok += 1;
      } else {
        ph.errors += 1;
      }
      if (id == nullptr || id->is_null()) continue;
      const std::string key = id->as_string();
      seen[key] += 1;
      if (is_stats) {
        stats_answered = reply.at("ok").as_bool();
        continue;
      }
      if (!reply.at("ok").as_bool()) {
        const std::string code = reply.at("error_code").as_string();
        if (code == "overloaded" || code == "deadline_exceeded" ||
            code == "shutting_down") {
          if (reply.find("retry_after_ms") == nullptr ||
              reply.at("retry_after_ms").as_int() < 1) {
            fail("storm: " + key + " (" + code +
                 ") reply lacks a retry_after_ms hint");
          }
        }
        if (deadline_zero.count(key) != 0 && code != "deadline_exceeded" &&
            code != "overloaded") {
          fail("storm: deadline 0 request " + key +
               " answered with unexpected code " + code);
        }
      } else if (deadline_zero.count(key) != 0) {
        // deadline_ms 0 expires deterministically before execution --
        // even a degrade-shed answer hits that checkpoint.
        fail("storm: deadline 0 request " + key + " answered ok");
      }
    }
    if (ph.answered != ph.sent) {
      fail("storm: sent " + std::to_string(ph.sent) + " lines, got " +
           std::to_string(ph.answered) + " replies");
    }
    for (const std::string& id : storm_ids) {
      const auto it = seen.find(id);
      if (it == seen.end()) {
        fail("storm: no reply for " + id);
      } else if (it->second != 1) {
        fail("storm: " + std::to_string(it->second) + " replies for " + id);
      }
    }
    if (!stats_answered) {
      fail("storm: the stats control line was not answered ok under load");
    }
  }

  // Counter balance: the stats artifact must agree with itself and with
  // the harness's own reply tallies.
  void counters(Service& svc) {
    tally.sent += 1;  // the stats line below counts itself
    const JsonValue reply =
        JsonValue::parse(svc.handle_line("{\"cmd\": \"stats\"}"));
    tally.observe(reply, true);
    report.stats = reply.at("stats");
    const JsonValue& serve = report.stats.at("serve");
    const JsonValue& req = serve.at("requests");
    const std::int64_t total = req.at("total").as_int();
    const std::int64_t sum =
        req.at("control").as_int() + req.at("errors").as_int() +
        req.at("predict_only").as_int() + req.at("degraded").as_int() +
        req.at("measured").as_int();
    report.counters_balanced = true;
    if (total != sum) {
      report.counters_balanced = false;
      fail("stats: control+errors+predict_only+degraded+measured = " +
           std::to_string(sum) + " != total " + std::to_string(total));
    }
    std::int64_t by_code = 0;
    for (const auto& member : req.at("errors_by_code").members()) {
      by_code += member.second.as_int();
      const auto it = tally.codes.find(member.first);
      const std::int64_t observed = it == tally.codes.end() ? 0 : it->second;
      if (member.second.as_int() != observed) {
        report.counters_balanced = false;
        fail("stats: errors_by_code." + member.first + " = " +
             std::to_string(member.second.as_int()) + " but the harness saw " +
             std::to_string(observed) + " such replies");
      }
    }
    if (by_code != req.at("errors").as_int()) {
      report.counters_balanced = false;
      fail("stats: errors_by_code sums to " + std::to_string(by_code) +
           " != errors " + std::to_string(req.at("errors").as_int()));
    }
    if (total != tally.sent) {
      report.counters_balanced = false;
      fail("stats: total " + std::to_string(total) + " != " +
           std::to_string(tally.sent) + " lines sent");
    }
    if (req.at("errors").as_int() != tally.errors) {
      report.counters_balanced = false;
      fail("stats: errors " + std::to_string(req.at("errors").as_int()) +
           " != " + std::to_string(tally.errors) + " error replies observed");
    }
    if (req.at("degraded").as_int() != tally.degraded) {
      report.counters_balanced = false;
      fail("stats: degraded " + std::to_string(req.at("degraded").as_int()) +
           " != " + std::to_string(tally.degraded) +
           " degraded replies observed");
    }
  }

  // Degraded agreement: an engine-free (degraded) answer must recommend
  // the same strategy, in the same ranking order, as the full service
  // that actually executed the request on the engine.  Degradation may
  // cost measurement detail, never a different recommendation.
  void degraded_agreement() {
    if (opts.hot_patterns <= 0) return;
    PhaseStats& ph = phase("degraded");
    ServiceOptions dopts;
    dopts.max_queue = 1;
    dopts.shed_policy = ShedPolicy::Degrade;
    dopts.window = 8;
    Service degraded(dopts);
    Service full;  // default geometry, no shedding: the engine runs
    int agree = 0;
    for (int p = 0; p < opts.hot_patterns; ++p) {
      RequestSpec filler;
      filler.id = "fill-" + std::to_string(p);
      filler.pattern = p;
      filler.reps = 1;
      filler.seed = 77;
      RequestSpec hot = filler;
      hot.id = "hot-" + std::to_string(p);
      hot.reps = opts.reps;
      ph.sent += 2;
      const std::vector<std::string> replies = degraded.handle_window(
          {render_request(filler), render_request(hot)});
      ph.answered += static_cast<std::int64_t>(replies.size());
      const JsonValue* shed = nullptr;
      JsonValue parsed;
      for (const std::string& raw : replies) {
        parsed = JsonValue::parse(raw);
        if (parsed.at("id").as_string() == hot.id) {
          shed = &parsed;
          break;
        }
      }
      if (shed == nullptr || !shed->at("ok").as_bool()) {
        fail("degraded: no ok reply for " + hot.id);
        continue;
      }
      ph.ok += 1;
      const JsonValue* flag = shed->find("degraded");
      if (flag == nullptr || !flag->as_bool()) {
        fail("degraded: " + hot.id + " was not answered degraded");
        continue;
      }
      if (const JsonValue* conf = shed->find("confidence");
          conf == nullptr || conf->as_double() < 0.0 ||
          conf->as_double() > 1.0) {
        fail("degraded: " + hot.id + " confidence missing or out of [0,1]");
      }
      const JsonValue engine =
          JsonValue::parse(full.handle_line(render_request(hot)));
      if (!engine.at("ok").as_bool() ||
          engine.find("measured") == nullptr) {
        fail("degraded: full-engine reference run failed for " + hot.id);
        continue;
      }
      bool same = shed->at("recommended").as_string() ==
                  engine.at("recommended").as_string();
      const auto& mine = shed->at("ranking").items();
      const auto& ref = engine.at("ranking").items();
      if (mine.size() != ref.size()) same = false;
      for (std::size_t k = 0; same && k < mine.size(); ++k) {
        same = mine[k].at("strategy").as_string() ==
               ref[k].at("strategy").as_string();
      }
      if (same) agree += 1;
    }
    report.degraded_agreement =
        static_cast<double>(agree) / static_cast<double>(opts.hot_patterns);
    if (report.degraded_agreement < 0.8) {
      fail("degraded: the model-only answer matched the full-engine "
           "service's recommendation on " +
           std::to_string(agree) + "/" + std::to_string(opts.hot_patterns) +
           " hot patterns (< 0.8)");
    }
  }

#ifdef __unix__
  struct LineReader {
    int fd;
    std::string buffer;

    /// Read one reply line (blocking); empty on EOF.
    std::string next() {
      for (;;) {
        const std::size_t nl = buffer.find('\n');
        if (nl != std::string::npos) {
          std::string line = buffer.substr(0, nl);
          buffer.erase(0, nl + 1);
          return line;
        }
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0) return std::string();
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
    }
  };

  static int connect_retry(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::copy(path.begin(), path.end(), addr.sun_path);
    for (int attempt = 0; attempt < 200; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return -1;
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return fd;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
  }

  static bool send_all(int fd, const std::string& data) {
    std::size_t written = 0;
    while (written < data.size()) {
      const ssize_t w =
          ::write(fd, data.data() + written, data.size() - written);
      if (w <= 0) return false;
      written += static_cast<std::size_t>(w);
    }
    return true;
  }

  // Socket chaos: slow writer, mid-stream disconnect, oversized line,
  // burst-beyond-window (the deadlock regression), and a shutdown with
  // queued lines (the bounded-drain contract).
  void socket_chaos() {
    if (!opts.socket_phase) return;
    PhaseStats& ph = phase("socket");
    ServiceOptions sopts;
    sopts.window = 2;
    sopts.max_line_bytes = 4096;
    Service svc(sopts);
    const std::string path =
        !opts.socket_path.empty()
            ? opts.socket_path
            : "/tmp/hetcomm_chaos_" + std::to_string(::getpid()) + "_" +
                  std::to_string(opts.seed) + ".sock";
    std::thread server([&] { svc.run_socket(path); });
    const auto expect = [&](LineReader& reader, const char* what,
                            bool want_ok) -> JsonValue {
      ph.answered += 1;
      const std::string raw = reader.next();
      if (raw.empty()) {
        ph.answered -= 1;
        fail(std::string("socket: connection closed before the ") + what +
             " reply");
        return JsonValue();
      }
      const JsonValue reply = JsonValue::parse(raw);
      if (reply.at("ok").as_bool() != want_ok) {
        fail(std::string("socket: unexpected verdict for ") + what + ": " +
             raw.substr(0, 120));
      }
      (reply.at("ok").as_bool() ? ph.ok : ph.errors) += 1;
      return reply;
    };

    RequestSpec spec;
    spec.reps = 1;
    spec.seed = 7;

    {  // Slow client: one byte every few, still answered.
      const int fd = connect_retry(path);
      if (fd < 0) {
        fail("socket: cannot connect (slow client)");
      } else {
        spec.id = "slow-1";
        const std::string line = render_request(spec) + "\n";
        for (std::size_t i = 0; i < line.size(); i += 16) {
          if (!send_all(fd, line.substr(i, 16))) break;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ph.sent += 1;
        LineReader reader{fd, {}};
        expect(reader, "slow client", true);
        ::close(fd);
      }
    }
    {  // Mid-stream disconnect: half a line, then gone.  The server must
       // simply move on to the next client.
      const int fd = connect_retry(path);
      if (fd < 0) {
        fail("socket: cannot connect (disconnect client)");
      } else {
        spec.id = "gone-1";
        const std::string line = render_request(spec);
        send_all(fd, line.substr(0, line.size() / 2));
        ::close(fd);
      }
    }
    {  // Oversized line: answered with one bad_request, then the
       // connection keeps working for well-formed requests.
      const int fd = connect_retry(path);
      if (fd < 0) {
        fail("socket: cannot connect (oversized client)");
      } else {
        LineReader reader{fd, {}};
        ph.sent += 1;
        send_all(fd, std::string(8192, 'x'));
        const JsonValue reply = expect(reader, "oversized line", false);
        if (reply.find("error_code") != nullptr &&
            reply.at("error_code").as_string() != "bad_request") {
          fail("socket: oversized line answered with " +
               reply.at("error_code").as_string());
        }
        send_all(fd, "\n");  // terminate the oversized line
        spec.id = "after-oversize";
        ph.sent += 1;
        send_all(fd, render_request(spec) + "\n");
        expect(reader, "post-oversize request", true);
        ::close(fd);
      }
    }
    {  // Burst past the batch window, then wait: the deadlock regression
       // (leftover buffered lines must be processed without more input).
      const int fd = connect_retry(path);
      if (fd < 0) {
        fail("socket: cannot connect (burst client)");
      } else {
        std::string burst;
        const int n = 7;  // > 3 windows of 2
        for (int k = 0; k < n; ++k) {
          spec.id = "burst-" + std::to_string(k);
          burst += render_request(spec) + "\n";
        }
        ph.sent += n;
        send_all(fd, burst);
        LineReader reader{fd, {}};
        for (int k = 0; k < n; ++k) expect(reader, "burst reply", true);
        ::close(fd);
      }
    }
    {  // Shutdown with queued lines: the window containing the shutdown
       // answers normally, everything behind it drains with structured
       // shutting_down errors -- nothing goes unanswered.
      const int fd = connect_retry(path);
      if (fd < 0) {
        fail("socket: cannot connect (shutdown client)");
      } else {
        std::string burst;
        spec.id = "final-1";
        burst += render_request(spec) + "\n";
        burst += "{\"id\": \"stop\", \"cmd\": \"shutdown\"}\n";
        spec.id = "final-2";
        burst += render_request(spec) + "\n";
        spec.id = "final-3";
        burst += render_request(spec) + "\n";
        ph.sent += 4;
        send_all(fd, burst);
        LineReader reader{fd, {}};
        expect(reader, "pre-shutdown request", true);
        expect(reader, "shutdown ack", true);
        for (int k = 0; k < 2; ++k) {
          const JsonValue reply = expect(reader, "shutdown drain", false);
          if (reply.find("error_code") != nullptr &&
              reply.at("error_code").as_string() != "shutting_down") {
            fail("socket: drained line answered with " +
                 reply.at("error_code").as_string());
          }
        }
        if (!reader.next().empty()) {
          fail("socket: extra bytes after the shutdown drain");
        }
        ::close(fd);
      }
    }
    server.join();
  }
#else
  void socket_chaos() {}
#endif

  ChaosReport run() {
    ServiceOptions sopts;
    sopts.window = opts.window;
    sopts.max_queue = opts.max_queue;
    sopts.shed_policy = opts.shed_policy;
    Service svc(sopts);
    ServiceOptions ropts;
    ropts.window = 1;
    Service oneshot(ropts);

    const StreamCost baseline = steady_stream(svc, oneshot, "baseline", 1);
    storm(svc);
    const StreamCost post = steady_stream(svc, oneshot, "post-storm", 50000);
    report.qps_baseline = baseline.qps;
    report.qps_post_storm = post.qps;
    // Both streams serve opts.requests requests, so this is the ratio of
    // CPU seconds per request.  Process CPU time, unlike wall-clock qps,
    // does not stretch when other processes load the host.
    report.recovery_ratio =
        post.cpu_seconds > 0.0 ? baseline.cpu_seconds / post.cpu_seconds
                               : 1.0;
    if (report.recovery_ratio < 0.25) {
      fail("recovery: post-storm CPU per request grew to " +
           std::to_string(1.0 / report.recovery_ratio) + "x baseline");
    }
    counters(svc);
    degraded_agreement();
    socket_chaos();

    for (const PhaseStats& ph : report.phases) {
      report.sent_total += ph.sent;
      report.answered_total += ph.answered;
      if (ph.answered != ph.sent) {
        fail(ph.name + ": answered " + std::to_string(ph.answered) + " of " +
             std::to_string(ph.sent) + " lines");
      }
    }
    for (const auto& code : tally.codes) {
      report.reply_codes.emplace_back(code.first, code.second);
    }
    return std::move(report);
  }
};

}  // namespace

std::vector<std::string> builtin_malformed_lines() {
  return {
      "{",                                             // truncated JSON
      "not json at all",                               // not JSON
      "[1, 2, 3]",                                     // not an object
      "\"just a string\"",                             // not an object
      "{\"cmd\": \"bogus\"}",                          // unknown cmd
      "{\"cmd\": \"stats\", \"extra\": 1}",            // cmd with extras
      "{\"id\": \"bad-key\", \"wat\": 1}",             // unknown key
      "{\"id\": \"bad-nodes\", \"nodes\": 0}",         // out of range
      "{\"id\": \"bad-deadline\", \"deadline_ms\": -5}",  // bad deadline
      "{\"id\": \"bad-pattern\", \"pattern\": 12}",    // wrong type
      // Integers past the int range, which once narrowed into range.
      "{\"id\": \"wide-nodes\", \"nodes\": 4294967298}",
      "{\"id\": \"wide-reps\", \"reps\": 4294967297}",
      "{\"id\": \"wide-msgs\", \"pattern\": {\"random\": "
      "{\"msgs_per_gpu\": 4294967297}}}",
      "{\"id\": \"wide-gpus\", \"nodes\": 2, \"pattern\": "
      "{\"gpus\": 4294967304, \"msgs\": []}}",
      "{\"id\": \"wide-msg-id\", \"nodes\": 2, \"pattern\": "
      "{\"gpus\": 8, \"msgs\": [[4294967296, 4, 64]]}}",
      "{\"id\": \"wide-dedup-id\", \"nodes\": 2, \"pattern\": "
      "{\"gpus\": 8, \"msgs\": [[0, 4, 64]], "
      "\"dedup\": [[0, 4294967297, 64]]}}",
      // 32 GPUs x 65536 messages: past the generated-pattern cap.
      "{\"id\": \"huge-random\", \"pattern\": {\"random\": "
      "{\"msgs_per_gpu\": 65536}}}",
      // Two 2^62-byte messages, or dedup sizes: byte totals past int64.
      "{\"id\": \"byte-overflow\", \"nodes\": 2, \"pattern\": "
      "{\"gpus\": 8, \"msgs\": [[0, 4, 4611686018427387904], "
      "[1, 5, 4611686018427387904]]}}",
      "{\"id\": \"dedup-overflow\", \"nodes\": 3, \"pattern\": "
      "{\"gpus\": 12, \"msgs\": [[0, 4, 64], [0, 8, 64]], \"dedup\": "
      "[[0, 1, 4611686018427387904], [0, 2, 4611686018427387904]]}}",
      // 100,000 nested arrays, past the parser's depth bound; a parser
      // without it overflows its stack.
      std::string(100000, '['),
  };
}

obs::JsonValue ChaosReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "hetcomm.serve_chaos.v1");
  doc.set("seed", static_cast<std::int64_t>(seed));
  doc.set("passed", passed());
  JsonValue phase_list = JsonValue::array();
  for (const PhaseStats& ph : phases) {
    JsonValue p = JsonValue::object();
    p.set("name", ph.name);
    p.set("sent", ph.sent);
    p.set("answered", ph.answered);
    p.set("ok", ph.ok);
    p.set("errors", ph.errors);
    phase_list.push_back(std::move(p));
  }
  doc.set("phases", std::move(phase_list));
  doc.set("sent_total", sent_total);
  doc.set("answered_total", answered_total);
  doc.set("mismatched_replies", mismatched_replies);
  JsonValue codes = JsonValue::object();
  for (const auto& code : reply_codes) codes.set(code.first, code.second);
  doc.set("reply_codes", std::move(codes));
  doc.set("counters_balanced", counters_balanced);
  doc.set("qps_baseline", qps_baseline);
  doc.set("qps_post_storm", qps_post_storm);
  doc.set("recovery_ratio", recovery_ratio);
  doc.set("degraded_agreement", degraded_agreement);
  if (!stats.is_null()) doc.set("stats", stats);
  JsonValue viol = JsonValue::array();
  for (const std::string& v : violations) viol.push_back(v);
  doc.set("violations", std::move(viol));
  return doc;
}

ChaosReport run_chaos(const ChaosOptions& options) {
  Harness harness(options);
  return harness.run();
}

}  // namespace hetcomm::serve::chaos
