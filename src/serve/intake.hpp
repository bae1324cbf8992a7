#pragma once
// Serve intake: admission control and window formation for one stream of
// request lines.  Service::run, Service::run_socket and
// Service::handle_window all stamp and window their lines here.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"

namespace hetcomm::serve {

struct TimedLine {
  std::string text;
  Clock::time_point enqueued;
  Admission admission = Admission::Normal;
};

struct Intake {
  std::size_t max_queue = 0;  ///< admitted lines that may wait (0 = any)
  std::deque<TimedLine> pending;  ///< admitted lines, oldest first
  std::vector<TimedLine> shed;

  /// Stamp an arriving line: ShedShutdown once a shutdown was requested,
  /// ShedOverload while max_queue admitted lines wait, else Normal.
  void admit(std::string text, bool shutting_down) {
    TimedLine line{std::move(text), Clock::now(), Admission::Normal};
    if (shutting_down) {
      line.admission = Admission::ShedShutdown;
    } else if (max_queue > 0 && pending.size() >= max_queue) {
      line.admission = Admission::ShedOverload;
    }
    if (line.admission == Admission::Normal) {
      pending.push_back(std::move(line));
    } else {
      shed.push_back(std::move(line));
    }
  }

  /// A window: the oldest `admitted` pending lines, then every shed line
  /// (shed lines never wait; they ride along for their cheap structured
  /// replies).  Lines are shed only while max_queue lines wait, so this is
  /// arrival order.
  std::vector<TimedLine> take(std::size_t admitted) {
    const auto end = pending.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(admitted, pending.size()));
    std::vector<TimedLine> window(std::make_move_iterator(pending.begin()),
                                  std::make_move_iterator(end));
    pending.erase(pending.begin(), end);
    std::move(shed.begin(), shed.end(), std::back_inserter(window));
    shed.clear();
    return window;
  }
};

}  // namespace hetcomm::serve
