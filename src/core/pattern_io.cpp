#include "core/pattern_io.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hetcomm::core {

namespace {

constexpr const char* kHeader = "hetcomm-pattern v1";

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// kFnvPrime^k mod 2^64 for k = 0..8.
constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * kFnvPrime;
  return pow;
}();

/// Fold one 64-bit word into the FNV-1a state byte by byte (little-endian
/// byte order, so the hash is identical on every platform).  XOR with a
/// zero byte is a no-op and multiplication mod 2^64 is associative, so the
/// word's high zero bytes fold into one multiply by a power of the prime.
constexpr std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  std::size_t b = 0;
  for (; word != 0; ++b, word >>= 8) {
    h ^= word & 0xffULL;
    h *= kFnvPrime;
  }
  return h * kFnvPrimePow[8 - b];
}

}  // namespace

std::uint64_t pattern_hash(const CommPattern& pattern) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_word(h, static_cast<std::uint64_t>(pattern.num_gpus()));
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    for (const GpuMessage& m : pattern.sends_from(src)) {
      h = fnv1a_word(h, static_cast<std::uint64_t>(src));
      h = fnv1a_word(h, static_cast<std::uint64_t>(m.dst_gpu));
      h = fnv1a_word(h, static_cast<std::uint64_t>(m.bytes));
      h = fnv1a_word(h, static_cast<std::uint64_t>(m.count));
    }
  }
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    for (const NodeDedup& d : pattern.dedup_from(src)) {
      // Tag dedup entries so a pattern with annotations can never collide
      // with one whose message list happens to encode the same words.
      h = fnv1a_word(h, 0xdedaULL);
      h = fnv1a_word(h, static_cast<std::uint64_t>(src));
      h = fnv1a_word(h, static_cast<std::uint64_t>(d.node));
      h = fnv1a_word(h, static_cast<std::uint64_t>(d.bytes));
    }
  }
  return h;
}

void write_pattern(std::ostream& os, const CommPattern& pattern) {
  os << kHeader << "\n";
  os << "gpus " << pattern.num_gpus() << "\n";
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    for (const GpuMessage& m : pattern.sends_from(src)) {
      os << "msg " << src << " " << m.dst_gpu << " " << m.bytes << " "
         << m.count << "\n";
    }
  }
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    for (const NodeDedup& d : pattern.dedup_from(src)) {
      os << "dedup " << src << " " << d.node << " " << d.bytes << "\n";
    }
  }
}

CommPattern read_pattern(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::runtime_error("read_pattern: bad header: '" + line + "'");
  }
  if (!std::getline(is, line)) {
    throw std::runtime_error("read_pattern: missing gpus line");
  }
  std::istringstream gpus_line(line);
  std::string keyword;
  int num_gpus = 0;
  if (!(gpus_line >> keyword >> num_gpus) || keyword != "gpus" ||
      num_gpus <= 0) {
    throw std::runtime_error("read_pattern: bad gpus line: '" + line + "'");
  }

  CommPattern pattern(num_gpus);
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream entry(line);
    entry >> keyword;
    if (keyword == "msg") {
      int src = 0, dst = 0, count = 0;
      std::int64_t bytes = 0;
      if (!(entry >> src >> dst >> bytes >> count) || count <= 0 ||
          bytes < count) {
        throw std::runtime_error("read_pattern: bad msg line: '" + line + "'");
      }
      // Reconstruct `count` logical messages totaling `bytes`.
      const std::int64_t each = bytes / count;
      std::int64_t left = bytes;
      for (int i = 0; i < count; ++i) {
        const std::int64_t b = i + 1 == count ? left : each;
        pattern.add(src, dst, b);
        left -= b;
      }
    } else if (keyword == "dedup") {
      int src = 0, node = 0;
      std::int64_t bytes = 0;
      if (!(entry >> src >> node >> bytes)) {
        throw std::runtime_error("read_pattern: bad dedup line: '" + line +
                                 "'");
      }
      pattern.set_node_dedup(src, node, bytes);
    } else {
      throw std::runtime_error("read_pattern: unknown keyword '" + keyword +
                               "'");
    }
  }
  return pattern;
}

void write_pattern_file(const std::string& path, const CommPattern& pattern) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_pattern_file: cannot open " + path);
  write_pattern(os, pattern);
}

CommPattern read_pattern_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("read_pattern_file: cannot open " + path);
  return read_pattern(is);
}

}  // namespace hetcomm::core
