#pragma once
// Load-generator side of the serve workloads: one unix-socket connection to
// the service, used by at most one writing and one reading thread at once.

#include <cstdint>
#include <string>
#include <string_view>

namespace ladder {

class Connection {
 public:
  /// Connect to the unix socket at `path`, retrying while the server is
  /// still binding it; throws std::runtime_error after `timeout_s`.
  explicit Connection(const std::string& path, double timeout_s = 10.0);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Write `line` plus a newline; throws std::runtime_error on failure.
  void send_line(std::string_view line);

  /// Read the next reply line (without its newline).  Returns false on end
  /// of stream; throws std::runtime_error when no byte arrives for
  /// `idle_timeout_s` seconds.
  bool read_line(std::string& line, double idle_timeout_s = 30.0);

  /// Send `line` and return the reply (single-threaded use only).
  std::string call(std::string_view line);

  /// Unblock a reader stuck in read_line (it then sees end of stream).
  void shutdown_read() noexcept;

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// The leading fields of a reply line: `{"id": N, ..., "ok": true, ...}`.
/// Returns false when the line carries no integer id.
bool parse_reply_head(std::string_view line, std::int64_t& id, bool& ok);

}  // namespace ladder
