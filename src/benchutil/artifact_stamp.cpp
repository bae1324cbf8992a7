#include "benchutil/artifact_stamp.hpp"

#include <unistd.h>

#include <cstdlib>
#include <ctime>
#include <string>

namespace hetcomm::benchutil {
namespace {

std::string git_sha_from_env() {
  for (const char* var : {"GITHUB_SHA", "HETCOMM_GIT_SHA"}) {
    if (const char* sha = std::getenv(var); sha != nullptr && *sha != '\0') {
      return sha;
    }
  }
  return "unknown";
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string host_name() {
  char buf[256];
  if (gethostname(buf, sizeof buf) != 0) return "unknown";
  buf[sizeof buf - 1] = '\0';
  return buf;
}

}  // namespace

obs::JsonValue artifact_stamp(int jobs) {
  obs::JsonValue stamp = obs::JsonValue::object();
  stamp.set("schema", kBenchStampSchema);
  stamp.set("git_sha", git_sha_from_env());
  stamp.set("utc", utc_now());
  stamp.set("jobs", jobs);
  stamp.set("hostname", host_name());
  return stamp;
}

}  // namespace hetcomm::benchutil
