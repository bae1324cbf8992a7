#pragma once
// Provenance stamp shared by every bench artifact (hetcomm.bench_stamp.v1).
//
// Benchmark JSON files get compared across commits (tools/bench_trend.py),
// so each artifact carries enough context to answer "what produced this
// number?": the commit, the UTC wall time, the host, and the execution
// geometry (--jobs) the run used.  The git sha comes from the
// environment -- GITHUB_SHA in CI, HETCOMM_GIT_SHA for local runs --
// because bench binaries must not shell out to git.

#include "obs/json.hpp"

namespace hetcomm::benchutil {

inline constexpr const char* kBenchStampSchema = "hetcomm.bench_stamp.v1";

/// Build the stamp object:
///   {"schema": "hetcomm.bench_stamp.v1", "git_sha": ..., "utc": ...,
///    "jobs": J, "hostname": ...}
/// jobs records the run geometry (0 = tool default); git_sha
/// falls back to "unknown" outside CI, utc is ISO-8601 Zulu.
[[nodiscard]] obs::JsonValue artifact_stamp(int jobs);

}  // namespace hetcomm::benchutil
