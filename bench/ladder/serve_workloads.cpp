// serve_hot and serve_churn: `hetcomm serve` answering requests.
//
// The untraced run times the service's own work: a serve::Service with
// jobs 1 is called directly on this thread (handle_line, handle_window --
// the calls its socket loop makes) in passes of kPassRequests requests,
// each pass pinned to the next CPU.  A lone pass sends its requests one at
// a time, a window pass in windows of kWindowLines.
//
// The traced run puts the service on a unix socket (Service::run_socket,
// on its own thread) and drives it from this process on one connection
// with two threads, a sender and a receiver, in rounds of about
// kRoundSeconds so each phase samples the whole run:
//
//   open loop   Poisson arrivals at a fixed offered rate, send times drawn
//               from the seed before the phase starts; a request's latency
//               runs from its *scheduled* send time to its reply, so a
//               stall also charges the requests queued behind it.
//   one-by-one  closed loop with one request in flight: the unloaded
//               latency of a single request.
//   saturated   closed loop with 256 requests in flight: throughput.
//
// serve_hot addresses 32 cached plans by pattern ref with "rank": false,
// so every request is a plan-cache hit.  serve_churn draws from 1024
// inline random patterns -- four times the plan cache -- and leaves the
// strategy to the advisor, so most requests rank, compile and evict.

#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "client.hpp"
#include "core/advisor.hpp"
#include "core/executor.hpp"
#include "core/pattern_io.hpp"
#include "core/strategy.hpp"
#include "hetsim/noise.hpp"
#include "ladder.hpp"
#include "machine/machine_json.hpp"
#include "obs/run_report.hpp"
#include "serve/service.hpp"
#include "spans.hpp"

namespace ladder {

namespace {

using hetcomm::mix_seed;
using hetcomm::obs::JsonValue;
namespace core = hetcomm::core;
namespace serve = hetcomm::serve;

constexpr int kSetups = 8;
constexpr int kNodes = 4;
constexpr int kReps = 8;
constexpr int kHotPatterns = 16;
constexpr int kChurnPatterns = 1024;
constexpr int kSaturatedInFlight = 256;
constexpr std::size_t kWarmupInFlight = 64;
constexpr std::int64_t kChurnWarmup = 512;
/// Requests per direct handle_window call: about what one 4 KiB socket
/// read holds, so the window a saturated socket client gets.
constexpr std::size_t kWindowLines = 32;
/// Requests per timed pass of direct calls: enough that every pass
/// carries about the same mix of request kinds.
constexpr std::size_t kPassRequests = 256;
constexpr std::uint64_t kCheckEvery = 64;
constexpr double kSloSeconds = 0.005;
/// Open-loop offered rates of the traced run: about a fifth of the
/// saturated socket rate each workload reaches on a 4-core host, so the
/// service queues a little without a backlog.
constexpr double kHotRate = 1500.0;
constexpr double kChurnRate = 800.0;
constexpr double kRoundSeconds = 1.5;
/// Shares of each round: open loop, one-by-one; saturated gets the rest.
constexpr double kOpenShare = 0.6;
constexpr double kIdleShare = 0.15;
constexpr std::int64_t kLeadInIds = std::int64_t{1} << 41;
constexpr const char* kStats = R"({"id": -1, "cmd": "stats"})";
constexpr std::int64_t kStatsId = -1;

std::string hash_hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// A positive JSON-safe integer drawn from (seed, salt, index).
std::int64_t draw(std::uint64_t seed, std::uint64_t salt, std::int64_t i) {
  return static_cast<std::int64_t>(
      mix_seed(mix_seed(seed, salt), static_cast<std::uint64_t>(i)) >> 17);
}

struct PatternSpec {
  int msgs = 16;
  std::int64_t bytes = 4096;
  std::int64_t seed = 1;

  [[nodiscard]] std::string json() const {
    return R"({"random": {"msgs_per_gpu": )" + std::to_string(msgs) +
           R"(, "bytes": )" + std::to_string(bytes) + R"(, "seed": )" +
           std::to_string(seed) + "}}";
  }
};

/// The request mix of one serve workload; request `id` is a pure function
/// of (seed, id), so any reply can be recomputed after the run.
class Mix {
 public:
  struct Request {
    std::size_t pattern = 0;
    const char* strategy = nullptr;  ///< null: the advisor picks
    std::int64_t seed = 0;
  };

  Mix(bool churn, std::uint64_t seed, const hetcomm::Topology& topo)
      : churn_(churn), seed_(seed) {
    if (!churn_) {
      constexpr std::int64_t kBytes[4] = {1024, 4096, 16384, 65536};
      for (int j = 0; j < kHotPatterns; ++j) {
        patterns_.push_back({16, kBytes[j % 4], draw(seed, 0x407, j) % 100000});
      }
    } else {
      constexpr std::int64_t kBytes[3] = {2048, 8192, 32768};
      for (int k = 0; k < kChurnPatterns; ++k) {
        patterns_.push_back({k % 2 == 0 ? 8 : 16, kBytes[(k / 2) % 3],
                             draw(seed, 0xc4u, k) % 1000000});
      }
    }
    for (const PatternSpec& p : patterns_) {
      specs_.push_back(p.json());
      if (!churn_) refs_.push_back(hash_hex(core::pattern_hash(pattern(topo, p))));
    }
  }

  [[nodiscard]] static core::CommPattern pattern(const hetcomm::Topology& topo,
                                                 const PatternSpec& p) {
    return core::random_pattern(topo, p.msgs, p.bytes,
                                static_cast<std::uint64_t>(p.seed));
  }

  [[nodiscard]] bool churn() const noexcept { return churn_; }
  [[nodiscard]] const PatternSpec& spec(std::size_t i) const {
    return patterns_[i];
  }
  [[nodiscard]] const std::string& ref(std::size_t i) const { return refs_[i]; }
  [[nodiscard]] std::size_t hot_plans() const { return 2 * patterns_.size(); }

  [[nodiscard]] Request request(std::int64_t id) const {
    Request r;
    const auto h = static_cast<std::uint64_t>(draw(seed_, 0x3e9, id));
    if (churn_) {
      r.pattern = h % patterns_.size();
    } else {
      const std::uint64_t plan = h % hot_plans();
      r.pattern = plan / 2;
      r.strategy = hot_strategy(plan);
    }
    r.seed = draw(seed_, 0x5eed, id);
    return r;
  }

  [[nodiscard]] std::string line(std::int64_t id) const {
    return render(id, request(id), false);
  }

  /// Hot warm-up: plan `plan` sent with its pattern inline, so the service
  /// registers the pattern (for later refs) and compiles the plan.
  [[nodiscard]] std::string registration(std::int64_t id,
                                         std::uint64_t plan) const {
    Request r;
    r.pattern = plan / 2;
    r.strategy = hot_strategy(plan);
    r.seed = 1;
    return render(id, r, true);
  }

 private:
  static const char* hot_strategy(std::uint64_t plan) {
    return plan % 2 == 0 ? "split+MD" : "split+DD";
  }

  [[nodiscard]] std::string render(std::int64_t id, const Request& r,
                                   bool inline_pattern) const {
    std::string s = R"({"id": )" + std::to_string(id) + R"(, "nodes": )" +
                    std::to_string(kNodes) + R"(, "pattern": )";
    if (churn_ || inline_pattern) {
      s += specs_[r.pattern];
    } else {
      s += R"({"ref": ")" + refs_[r.pattern] + R"("})";
    }
    if (r.strategy != nullptr) {
      s += R"(, "strategy": ")" + std::string(r.strategy) +
           R"(", "rank": false)";
    }
    s += R"(, "reps": )" + std::to_string(kReps) + R"(, "seed": )" +
         std::to_string(r.seed) + "}";
    return s;
  }

  bool churn_;
  std::uint64_t seed_;
  std::vector<PatternSpec> patterns_;
  std::vector<std::string> specs_;
  std::vector<std::string> refs_;
};

/// The service on its own thread, serving one client at a time over a
/// unix socket.  Destroy the client's Connection before this object: the
/// destructor connects afresh to deliver a shutdown if stop() was skipped.
class Server {
 public:
  Server(const serve::ServiceOptions& options, std::string path)
      : service_(options), path_(std::move(path)), thread_([this] {
          try {
            service_.run_socket(path_);
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}

  ~Server() {
    if (!thread_.joinable()) return;
    try {
      Connection c(path_, 5.0);
      (void)c.call(R"({"cmd": "shutdown"})");
    } catch (const std::exception&) {
      // run_socket already returned (bind failure); join below.
    }
    thread_.join();
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void stop(Connection& conn) {
    (void)conn.call(R"({"id": -2, "cmd": "shutdown"})");
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

  /// Valid once stop() has returned.
  [[nodiscard]] serve::Service& service() { return service_; }

 private:
  serve::Service service_;
  std::string path_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after every member it uses
};

/// A running service plus its client connection; members are destroyed in
/// reverse order, so the connection closes before the server stops.
struct ServiceLink {
  std::unique_ptr<Server> server;
  std::unique_ptr<Connection> conn;
};

struct PhaseStats {
  std::vector<double> latency;  ///< seconds, per ok reply
  std::vector<double> late;     ///< seconds, per open-loop send
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t ok = 0;
  std::int64_t slo_hits = 0;    ///< ok and within kSloSeconds of schedule
  std::int64_t in_window = 0;   ///< closed loop: replies before the end
  double seconds = 0.0;
  JsonValue stats;              ///< service metrics when the phase ended

  void add(const PhaseStats& o) {
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    late.insert(late.end(), o.late.begin(), o.late.end());
    sent += o.sent;
    answered += o.answered;
    ok += o.ok;
    slo_hits += o.slo_hits;
    in_window += o.in_window;
    seconds += o.seconds;
    stats = o.stats;
  }
};

/// Replies kept for the one-shot recomputation, and the reply errors seen.
struct Picks {
  std::uint64_t salt = 0;
  std::vector<std::pair<std::int64_t, std::string>> replies;
  std::vector<std::string> errors;

  [[nodiscard]] bool picked(std::int64_t id) const {
    return mix_seed(salt, static_cast<std::uint64_t>(id)) % kCheckEvery == 0;
  }
  void note(std::int64_t id, bool ok, const std::string& line) {
    if (!ok && errors.size() < 4) errors.push_back(line.substr(0, 300));
    if (ok && picked(id)) replies.emplace_back(id, line);
  }
};

void precise_timers() {
#ifdef __linux__
  // Default timer slack (50 us) would delay every scheduled send.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

JsonValue stats_of(const std::string& line) {
  return JsonValue::parse(line).at("stats");
}

/// Poisson send times (seconds from the phase start) over `seconds`.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  std::vector<double> at;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const double u =
        (static_cast<double>(mix_seed(seed, i) >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    at.push_back(t);
  }
  return at;
}

PhaseStats open_loop(Connection& conn, const Mix& mix, std::int64_t first_id,
                     const std::vector<double>& schedule, Picks& picks) {
  PhaseStats ph;
  const std::size_t n = schedule.size();
  ph.late.assign(n, 0.0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i]));
  };
  std::thread sender([&] {
    precise_timers();
    try {
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due(i));
        ph.late[i] = seconds_between(due(i), Clock::now());
        conn.send_line(mix.line(first_id + static_cast<std::int64_t>(i)));
      }
      conn.send_line(kStats);
    } catch (const std::exception& e) {
      std::cerr << "ladder: open-loop sender: " << e.what() << "\n";
      conn.shutdown_read();
    }
  });
  try {
    std::string line;
    while (conn.read_line(line)) {
      const auto at = Clock::now();
      std::int64_t id = 0;
      bool ok = false;
      if (!parse_reply_head(line, id, ok)) continue;
      if (id == kStatsId) {
        ph.stats = stats_of(line);
        break;
      }
      const std::int64_t i = id - first_id;
      if (i < 0 || i >= static_cast<std::int64_t>(n)) continue;
      ++ph.answered;
      picks.note(id, ok, line);
      if (!ok) continue;
      ++ph.ok;
      const double latency =
          seconds_between(due(static_cast<std::size_t>(i)), at);
      ph.latency.push_back(latency);
      if (latency <= kSloSeconds) ++ph.slo_hits;
    }
  } catch (...) {
    conn.shutdown_read();
    sender.join();
    throw;
  }
  sender.join();
  ph.sent = static_cast<std::int64_t>(n);
  ph.seconds = schedule.empty() ? 0.0 : schedule.back();
  return ph;
}

/// Closed loop with `in_flight` outstanding requests until `seconds` have
/// passed or `max_requests` were sent.  Latency runs from each request's
/// actual send.
PhaseStats closed_loop(Connection& conn, const Mix& mix, std::int64_t first_id,
                       int in_flight, double seconds,
                       std::int64_t max_requests, Picks* picks) {
  PhaseStats ph;
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;         // guarded by mu
  bool stopped = false;        // guarded by mu
  std::vector<Clock::time_point> sent_at;  // guarded by mu
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::thread sender([&] {
    try {
      for (std::int64_t k = 0; k < max_requests && Clock::now() < end; ++k) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return outstanding < in_flight || stopped; });
          if (stopped) break;
          ++outstanding;
          sent_at.push_back(Clock::now());
        }
        conn.send_line(mix.line(first_id + k));
      }
      conn.send_line(kStats);
    } catch (const std::exception& e) {
      std::cerr << "ladder: closed-loop sender: " << e.what() << "\n";
      conn.shutdown_read();
    }
  });
  const auto stop_sender = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stopped = true;
    }
    cv.notify_all();
  };
  try {
    std::string line;
    while (conn.read_line(line)) {
      const auto at = Clock::now();
      std::int64_t id = 0;
      bool ok = false;
      if (!parse_reply_head(line, id, ok)) continue;
      if (id == kStatsId) {
        ph.stats = stats_of(line);
        break;
      }
      Clock::time_point sent{};
      const std::int64_t i = id - first_id;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (i < 0 || i >= static_cast<std::int64_t>(sent_at.size())) continue;
        sent = sent_at[static_cast<std::size_t>(i)];
        --outstanding;
      }
      cv.notify_one();
      ++ph.answered;
      if (at <= end) ++ph.in_window;
      if (picks != nullptr) picks->note(id, ok, line);
      if (!ok) continue;
      ++ph.ok;
      ph.latency.push_back(seconds_between(sent, at));
    }
  } catch (...) {
    stop_sender();
    conn.shutdown_read();
    sender.join();
    throw;
  }
  stop_sender();
  sender.join();
  ph.sent = static_cast<std::int64_t>(sent_at.size());
  ph.seconds = std::min(seconds, seconds_between(t0, Clock::now()));
  return ph;
}

double stat(const JsonValue& stats, std::initializer_list<const char*> path) {
  const JsonValue* v = &stats;
  for (const char* key : path) {
    if (v == nullptr || !v->is_object()) return 0.0;
    v = v->find(key);
  }
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

/// The service's answer recomputed one-shot, as `hetcomm advise` plus
/// core::measure would give it: every field of a reply except timing,
/// cache and execution-geometry fields.
JsonValue expected_reply(const Mix& mix, const Mix::Request& r,
                         const hetcomm::machine::MachineModel& mach,
                         const hetcomm::Topology& topo) {
  const core::CommPattern pattern = Mix::pattern(topo, mix.spec(r.pattern));
  JsonValue doc = JsonValue::object();
  doc.set("ok", true);
  doc.set("machine", mach.name);
  doc.set("nodes", kNodes);
  doc.set("gpus", pattern.num_gpus());
  doc.set("pattern_hash", hash_hex(core::pattern_hash(pattern)));
  core::StrategyConfig config;
  if (r.strategy != nullptr) {
    config = core::parse_strategy(r.strategy);
  } else {
    const core::Advisor advisor(topo, mach.params);
    const std::vector<core::Recommendation> ranking = advisor.rank(pattern);
    config = ranking.front().config;
    doc.set("recommended", config.name());
    JsonValue rows = JsonValue::array();
    for (const core::Recommendation& rec : ranking) {
      JsonValue row = JsonValue::object();
      row.set("strategy", rec.config.name());
      row.set("predicted_seconds", rec.predicted_seconds);
      row.set("relative", rec.relative);
      rows.push_back(std::move(row));
    }
    doc.set("ranking", std::move(rows));
  }
  core::MeasureOptions m;
  m.reps = kReps;
  m.seed = static_cast<std::uint64_t>(r.seed);
  m.noise_sigma = 0.02;
  m.collect_metrics = true;
  const core::CommPlan plan =
      core::build_plan(pattern, topo, mach.params, config);
  const core::MeasureResult result =
      core::measure(plan, topo, mach.params, m);
  JsonValue measured = JsonValue::object();
  measured.set("strategy", config.name());
  measured.set("reps", kReps);
  measured.set("seed", r.seed);
  measured.set("max_avg", result.max_avg);
  measured.set("makespan", result.metrics->makespan.to_json());
  doc.set("measured", std::move(measured));
  return doc;
}

/// Every member of `expected` is present in `actual` with an equal value
/// (numbers compared exactly); extra members of `actual` are ignored.
bool matches(const JsonValue& expected, const JsonValue& actual,
             std::string& where) {
  if (expected.is_object()) {
    if (!actual.is_object()) return false;
    for (const auto& [key, value] : expected.members()) {
      const JsonValue* a = actual.find(key);
      if (a == nullptr || !matches(value, *a, where)) {
        where = key + (where.empty() ? "" : "." + where);
        return false;
      }
    }
    return true;
  }
  if (expected.is_array()) {
    if (!actual.is_array() || actual.size() != expected.size()) return false;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (!matches(expected.at(i), actual.at(i), where)) {
        where = "[" + std::to_string(i) + "]" + where;
        return false;
      }
    }
    return true;
  }
  if (expected.is_number()) {
    return actual.is_number() && actual.as_double() == expected.as_double();
  }
  if (expected.is_string()) {
    return actual.is_string() && actual.as_string() == expected.as_string();
  }
  if (expected.is_bool()) {
    return actual.is_bool() && actual.as_bool() == expected.as_bool();
  }
  return actual.is_null();
}

/// Direct-call samples: the service's own work on the calling thread.
struct DirectStats {
  std::vector<double> lone_pass;    ///< seconds per pass of lone requests
  std::vector<double> window_pass;  ///< seconds per pass of windows
  std::vector<double> calibration;  ///< calibrate() before each pass
  std::int64_t sent = 0;
  std::int64_t ok = 0;
};

struct Runner {
  const Args& args;
  bool churn;
  double rate;
  hetcomm::machine::MachineModel mach;
  hetcomm::Topology topo;
  Mix mix;
  std::int64_t next_id = 0;
  Picks picks;

  Runner(const Args& a, bool c)
      : args(a),
        churn(c),
        rate(a.rate > 0.0 ? a.rate : (c ? kChurnRate : kHotRate)),
        mach(hetcomm::machine::resolve_machine("lassen")),
        topo(mach.topology(kNodes)),
        mix(c, a.seed, topo) {
    picks.salt = mix_seed(a.seed, 0x9c1cULL);
  }

  std::int64_t take_ids(std::int64_t n) {
    const std::int64_t first = next_id;
    next_id += n;
    return first;
  }

  /// The lines that fill a fresh service's caches: the hot set's
  /// registrations (each pattern inline once per strategy, so later
  /// requests can address it by ref), or kChurnWarmup churn requests.
  std::vector<std::string> fill_lines() {
    std::vector<std::string> lines;
    if (!churn) {
      for (std::uint64_t p = 0; p < mix.hot_plans(); ++p) {
        lines.push_back(mix.registration(take_ids(1), p));
      }
    } else {
      const std::int64_t first = take_ids(kChurnWarmup);
      for (std::int64_t k = 0; k < kChurnWarmup; ++k) {
        lines.push_back(mix.line(first + k));
      }
    }
    return lines;
  }

  /// Throws unless every fill reply is ok (and, for the hot set, names the
  /// pattern hash its refs use).
  void check_fill(const std::vector<std::string>& replies) const {
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const JsonValue reply = JsonValue::parse(replies[i]);
      const JsonValue* ok = reply.find("ok");
      const JsonValue* hash = reply.find("pattern_hash");
      if (ok == nullptr || !ok->as_bool() ||
          (!churn && (hash == nullptr ||
                      hash->as_string() != mix.ref(i / 2)))) {
        throw std::runtime_error("cache fill failed: " +
                                 replies[i].substr(0, 300));
      }
    }
  }

  /// Construct a service and fill its caches with direct calls, in windows
  /// the size a saturated socket reads.
  std::unique_ptr<serve::Service> direct_service() {
    auto svc = std::make_unique<serve::Service>(options(false, 0.0));
    const std::vector<std::string> lines = fill_lines();
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < lines.size(); i += kWindowLines) {
      const std::vector<std::string> window(
          lines.begin() + static_cast<std::ptrdiff_t>(i),
          lines.begin() + static_cast<std::ptrdiff_t>(
                              std::min(lines.size(), i + kWindowLines)));
      for (std::string& r : svc->handle_window(window)) {
        replies.push_back(std::move(r));
      }
    }
    check_fill(replies);
    return svc;
  }

  void note(std::int64_t id, const std::string& reply, DirectStats& st) {
    std::int64_t got = 0;
    bool ok = false;
    ++st.sent;
    if (!parse_reply_head(reply, got, ok) || got != id) ok = false;
    st.ok += ok ? 1 : 0;
    picks.note(id, ok, reply);
  }

  /// Passes of kPassRequests requests for `seconds`, each pass pinned to
  /// the next CPU: a lone pass sends them one at a time (handle_line), a
  /// window pass in windows of kWindowLines (handle_window).  Request lines
  /// are rendered before the clock starts.
  void direct_phase(serve::Service& svc, double seconds, DirectStats& st) {
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    std::vector<std::string> lines(kPassRequests);
    std::vector<std::string> replies(kPassRequests);
    int rotation = 0;
    do {
      for (const bool lone : {true, false}) {
        const std::int64_t first =
            take_ids(static_cast<std::int64_t>(kPassRequests));
        for (std::size_t k = 0; k < kPassRequests; ++k) {
          lines[k] = mix.line(first + static_cast<std::int64_t>(k));
        }
        const PinnedToCpu pin(rotation++);
        st.calibration.push_back(calibrate());
        const auto t0 = Clock::now();
        if (lone) {
          for (std::size_t k = 0; k < kPassRequests; ++k) {
            replies[k] = svc.handle_line(lines[k]);
          }
        } else {
          for (std::size_t k = 0; k < kPassRequests; k += kWindowLines) {
            const std::vector<std::string> window(
                lines.begin() + static_cast<std::ptrdiff_t>(k),
                lines.begin() + static_cast<std::ptrdiff_t>(k + kWindowLines));
            std::vector<std::string> out = svc.handle_window(window);
            std::move(out.begin(), out.end(),
                      replies.begin() + static_cast<std::ptrdiff_t>(k));
          }
        }
        const double wall = seconds_between(t0, Clock::now());
        (lone ? st.lone_pass : st.window_pass).push_back(wall);
        for (std::size_t k = 0; k < kPassRequests; ++k) {
          note(first + static_cast<std::int64_t>(k), replies[k], st);
        }
      }
    } while (Clock::now() < end);
  }

  /// Start a service on a unix socket, connect, and fill its caches.
  void start(ServiceLink& s, const serve::ServiceOptions& opts) {
    s.server = std::make_unique<Server>(opts, args.socket_path);
    s.conn = std::make_unique<Connection>(args.socket_path);
    const std::vector<std::string> lines = fill_lines();
    // Pipelined in windows of kWarmupInFlight: the socket carries no more
    // than a saturated client keeps in flight.
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      s.conn->send_line(lines[i]);
      if ((i + 1) % kWarmupInFlight != 0 && i + 1 != lines.size()) continue;
      while (replies.size() <= i) {
        std::string line;
        if (!s.conn->read_line(line)) {
          throw std::runtime_error("service closed during cache fill");
        }
        replies.push_back(std::move(line));
      }
    }
    check_fill(replies);
  }

  /// The socket phases of one service, pooled over rounds.
  struct Drive {
    PhaseStats open, idle, saturated;
    double saturated_requests = 0.0;    ///< service-side, saturated phases
    double saturated_windows = 0.0;
    JsonValue stats_begin, stats_end;
  };

  /// Open-loop schedules, one per round, drawn from the seed.
  [[nodiscard]] std::vector<std::vector<double>> schedules(
      double seconds) const {
    std::vector<std::vector<double>> out(static_cast<std::size_t>(rounds(seconds)));
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = poisson_schedule(rate, seconds / out.size() * kOpenShare,
                                mix_seed(mix_seed(args.seed, 0x5c4edULL), r));
    }
    return out;
  }

  /// Phases alternate in rounds of about kRoundSeconds, so each one samples
  /// the whole run instead of one stretch of it.
  [[nodiscard]] static int rounds(double seconds) {
    return std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)));
  }

  Drive drive(Connection& conn, double seconds) {
    Drive d;
    // Untimed lead-in at the offered rate: idle host CPUs take a moment to
    // come up to speed.
    Picks lead_in_picks;
    const PhaseStats lead_in = open_loop(
        conn, mix, kLeadInIds,
        poisson_schedule(rate, std::min(0.5, seconds / 20),
                         mix_seed(args.seed, 0x1eadULL)),
        lead_in_picks);
    if (lead_in.ok != lead_in.sent) {
      throw std::runtime_error("lead-in requests failed");
    }
    d.stats_begin = stats_of(conn.call(kStats));
    const std::vector<std::vector<double>> plan = schedules(seconds);
    const double round = seconds / static_cast<double>(plan.size());
    const std::int64_t unbounded = std::int64_t{1} << 40;
    for (const std::vector<double>& schedule : plan) {
      d.open.add(open_loop(conn, mix,
                           take_ids(static_cast<std::int64_t>(schedule.size())),
                           schedule, picks));
      const PhaseStats idle = closed_loop(conn, mix, next_id, 1,
                                          round * kIdleShare, unbounded, &picks);
      next_id += idle.sent;
      d.idle.add(idle);
      const PhaseStats sat =
          closed_loop(conn, mix, next_id, kSaturatedInFlight,
                      round * (1.0 - kOpenShare - kIdleShare), unbounded, &picks);
      next_id += sat.sent;
      d.saturated.add(sat);
      d.saturated_requests += stat(sat.stats, {"serve", "requests", "total"}) -
                              stat(idle.stats, {"serve", "requests", "total"});
      d.saturated_windows +=
          stat(sat.stats, {"serve", "batching", "windows"}) -
          stat(idle.stats, {"serve", "batching", "windows"});
      d.stats_end = sat.stats;
    }
    return d;
  }

  /// Direct calls run on the calling thread (jobs 1); the socket service
  /// gets the CPUs the load generator leaves free.
  serve::ServiceOptions options(bool socket, double traced_seconds) const {
    serve::ServiceOptions o;
    o.jobs = socket ? std::max(1, nproc() - 2) : 1;
    if (traced_seconds > 0.0) {
      // Sample so that roughly 200 open-loop windows keep their spans
      // (each carries up to 256 engine events); odd periods alternate
      // between window and request traces.
      const double ids = rate * traced_seconds * kOpenShare * 2.0;
      auto period = static_cast<std::uint64_t>(std::max(1.0, ids / 400.0));
      if (period % 2 == 0) period += 1;
      o.trace = true;
      o.trace_sample = period;
      o.trace_ring_capacity = std::size_t{1} << 17;
    }
    return o;
  }

  Outcome run() {
    Outcome out;
    if (!args.trace) {
      run_direct(out);
    } else {
      run_socket(out);
    }
    check_replies(out);
    for (const std::string& e : picks.errors) {
      out.check(false, "error reply: " + e);
    }
    return out;
  }

  /// The untraced run: kSetups set-ups, then direct calls for --seconds.
  void run_direct(Outcome& out) {
    std::vector<double> setups;
    std::unique_ptr<serve::Service> svc;
    for (int k = 0; k < kSetups; ++k) {
      const PinnedToCpu pin(k);
      svc.reset();
      const auto t0 = Clock::now();
      svc = direct_service();
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    DirectStats lead_in;
    direct_phase(*svc, std::min(0.5, args.seconds / 20), lead_in);
    DirectStats st;
    direct_phase(*svc, args.seconds, st);
    out.attempted = lead_in.sent + st.sent;
    out.failed = out.attempted - lead_in.ok - st.ok;

    const Timing lone = summarize(st.lone_pass);
    const Timing window = summarize(st.window_pass);
    const double scale = host_scale(st.calibration);
    const auto per_pass = static_cast<double>(kPassRequests);
    out.detail.set("setup_s", to_json(summarize(setups)));
    out.detail.set("lone_pass_s", to_json(lone));
    out.detail.set("window_pass_s", to_json(window));
    out.detail.set("pass_requests", static_cast<std::int64_t>(kPassRequests));
    out.detail.set("window_lines", static_cast<std::int64_t>(kWindowLines));
    out.detail.set("calibration_s", to_json(summarize(st.calibration)));
    out.detail.set("host_scale", scale);
    out.set("setup_s", summarize(setups).median * scale, "s",
            static_cast<std::int64_t>(setups.size()));
    out.set("latency_ms", lone.p10 * scale / per_pass * 1e3, "ms", lone.n);
    out.set("throughput_per_s", per_pass / (window.p10 * scale), "1/s",
            window.n);
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  }

  /// The traced run: the socket service untraced, then traced, for half of
  /// --seconds each; the per-layer metrics come from the traced half and
  /// the client diagnostics from the untraced one.
  void run_socket(Outcome& out) {
    const double half = args.seconds / 2;
    Drive d;
    {
      ServiceLink link;
      start(link, options(true, 0.0));
      d = drive(*link.conn, half);
      link.server->stop(*link.conn);
    }
    ServiceLink traced;
    start(traced, options(true, half));
    Drive t = drive(*traced.conn, half);
    traced.server->stop(*traced.conn);
    const JsonValue doc = traced.server->service().trace_json();
    write_trace_file(args.trace_path, doc);
    const SpanAnalysis spans = analyze_spans(doc);
    print_layer_table(std::cout, spans);
    out.detail.set("layers", layer_table_json(spans));

    for (const Drive* drv : {&d, &t}) {
      for (const PhaseStats* ph : {&drv->open, &drv->idle, &drv->saturated}) {
        out.attempted += ph->sent;
        out.failed += ph->sent - ph->ok;
      }
    }
    out.detail.set("rate_rps", rate);
    out.detail.set("service_jobs", options(true, 0.0).jobs);
    out.detail.set("open_latency_s", to_json(summarize(d.open.latency)));
    out.detail.set("open_lateness_s", to_json(summarize(d.open.late)));
    out.detail.set("one_by_one_latency_s", to_json(summarize(d.idle.latency)));
    out.detail.set("saturated_latency_s",
                   to_json(summarize(d.saturated.latency)));
    layer_metrics(d, t, spans, out);
  }

  void check_replies(Outcome& out) {
    std::sort(picks.replies.begin(), picks.replies.end());
    std::int64_t mismatches = 0;
    std::uint64_t digest = fnv1a(nullptr, 0);
    for (const auto& [id, line] : picks.replies) {
      const JsonValue expected =
          expected_reply(mix, mix.request(id), mach, topo);
      std::string where;
      if (!matches(expected, JsonValue::parse(line), where)) {
        ++mismatches;
        if (mismatches <= 3) {
          out.check(false, "reply " + std::to_string(id) +
                               " differs from one-shot at " + where);
        }
      }
      // Digest of the first checked answers: equal across runs of a seed.
      if (out.digest_items < 32) {
        const double max_avg =
            expected.at("measured").at("max_avg").as_double();
        digest = fnv1a(&max_avg, sizeof max_avg, digest);
        out.digest = digest;
        ++out.digest_items;
      }
    }
    out.failed += mismatches;
    out.detail.set("checked_replies",
                   static_cast<std::int64_t>(picks.replies.size()));
  }

  void layer_metrics(const Drive& d, const Drive& t, const SpanAnalysis& spans,
                     Outcome& out) const {
    const Timing untraced = summarize(d.open.latency);
    const Timing traced = summarize(t.open.latency);
    out.set("obs.trace_overhead",
            untraced.median > 0.0 ? traced.median / untraced.median : 0.0,
            "ratio");

    const JsonValue& s0 = t.stats_begin;
    const JsonValue& s3 = t.stats_end;
    const auto delta = [&](std::initializer_list<const char*> path) {
      return stat(s3, path) - stat(s0, path);
    };
    const double busy = delta({"serve", "busy_seconds"});
    const double hits = delta({"serve", "cache", "plan", "hits"});
    const double misses = delta({"serve", "cache", "plan", "misses"});
    out.set("runtime.plan_cache.hit_rate",
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
    out.set("runtime.plan_cache.misses", misses, "count");
    out.set("runtime.plan_cache.evictions",
            delta({"serve", "cache", "plan", "evictions"}), "count");
    const double compiles =
        delta({"serve", "timing", "compile", "per_compile", "count"});
    out.set("core.plan.calls", compiles, "count");
    out.set("core.plan.busy_s",
            delta({"serve", "timing", "compile", "total_seconds"}), "s",
            static_cast<std::int64_t>(compiles));
    out.set("core.plan.p50_us",
            stat(s3, {"serve", "timing", "compile", "per_compile", "p50"}) *
                1e6,
            "us",
            static_cast<std::int64_t>(stat(
                s3, {"serve", "timing", "compile", "per_compile", "count"})));
    const double execute =
        delta({"serve", "timing", "execute", "total_seconds"});
    out.set("core.measure.busy_s", execute, "s");
    out.set("serve.execute_share", busy > 0.0 ? execute / busy : 0.0, "ratio");
    out.set("serve.compile_share",
            busy > 0.0
                ? delta({"serve", "timing", "compile", "total_seconds"}) / busy
                : 0.0,
            "ratio");
    out.set("serve.requests_per_window",
            t.saturated_windows > 0.0
                ? t.saturated_requests / t.saturated_windows
                : 0.0,
            "count");

    const SpanStat& request = spans.get("request");
    const double n = static_cast<double>(std::max<std::int64_t>(1, request.count));
    for (const char* name : {"parse", "queue_wait", "execute", "cache.lookup",
                             "cache.build", "window.render", "serve.block"}) {
      out.set(std::string("serve.self_ms.") + name,
              spans.get(name).self_seconds / n * 1e3, "ms", request.count);
    }
    out.set("serve.unattributed_share",
            request.busy_seconds > 0.0
                ? request.self_seconds / request.busy_seconds
                : 0.0,
            "ratio", request.count);
    const Timing queue = summarize(spans.get("queue_wait").durations);
    out.set("serve.queue_wait_p50_ms", queue.median * 1e3, "ms", queue.n);

    const PhaseStats& open = d.open;
    out.set("client.p50_ms", summarize(open.latency).median * 1e3, "ms",
            static_cast<std::int64_t>(open.latency.size()));
    out.set("client.idle_p50_ms", summarize(d.idle.latency).median * 1e3,
            "ms", static_cast<std::int64_t>(d.idle.latency.size()));
    out.set("client.saturated_rps",
            d.saturated.seconds > 0.0
                ? static_cast<double>(d.saturated.in_window) / d.saturated.seconds
                : 0.0,
            "1/s", d.saturated.in_window);
    out.set("client.p99_ms", supported_percentile(open.latency, 99.0) * 1e3,
            "ms", static_cast<std::int64_t>(open.latency.size()));
    out.set("client.p999_ms", supported_percentile(open.latency, 99.9) * 1e3,
            "ms", static_cast<std::int64_t>(open.latency.size()));
    out.set("client.late_p99_ms", supported_percentile(open.late, 99.0) * 1e3,
            "ms", static_cast<std::int64_t>(open.late.size()));
    out.set("client.slo_share",
            open.sent > 0 ? static_cast<double>(open.slo_hits) /
                                static_cast<double>(open.sent)
                          : 0.0,
            "ratio", open.sent);
    out.set("client.sent", static_cast<double>(open.sent), "count");
    out.set("client.answered", static_cast<double>(open.answered), "count");

  }
};

}  // namespace

Outcome run_serve(const Args& args, bool churn) {
  Runner runner(args, churn);
  return runner.run();
}

}  // namespace ladder
