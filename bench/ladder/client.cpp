#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace ladder {

namespace {

std::size_t skip_separators(std::string_view s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == ':')) ++i;
  return i;
}

}  // namespace

Connection::Connection(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::copy(path.begin(), path.end(), addr.sun_path);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("cannot create unix socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return;
    }
    ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("cannot connect to " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send_line(std::string_view line) {
  std::string framed(line);
  framed += '\n';
  std::size_t written = 0;
  while (written < framed.size()) {
    const ssize_t w = ::send(fd_, framed.data() + written,
                             framed.size() - written, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw std::runtime_error("write to the service failed");
    written += static_cast<std::size_t>(w);
  }
}

bool Connection::read_line(std::string& line, double idle_timeout_s) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line.assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ > (1u << 16)) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(idle_timeout_s * 1000));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      throw std::runtime_error("service sent nothing for " +
                               std::to_string(idle_timeout_s) + " s");
    }
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Connection::call(std::string_view line) {
  send_line(line);
  std::string reply;
  if (!read_line(reply)) {
    throw std::runtime_error("service closed the connection");
  }
  return reply;
}

void Connection::shutdown_read() noexcept { ::shutdown(fd_, SHUT_RD); }

bool parse_reply_head(std::string_view line, std::int64_t& id, bool& ok) {
  const std::size_t id_at = line.find("\"id\"");
  if (id_at == std::string_view::npos) return false;
  const std::size_t v = skip_separators(line, id_at + 4);
  const char* first = line.data() + v;
  const char* last = line.data() + line.size();
  if (std::from_chars(first, last, id).ec != std::errc()) return false;
  const std::size_t ok_at = line.find("\"ok\"");
  ok = ok_at != std::string_view::npos &&
       line.substr(skip_separators(line, ok_at + 4), 4) == "true";
  return true;
}

}  // namespace ladder
