// Inputs and expected outputs of the end-to-end benchmark: its own seeded
// key generators, row payloads and oracle. Nothing here comes from
// src/workload/, so changes to the engine's storm drivers can neither
// alter what this benchmark runs nor what it expects.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/value_codec.h"

namespace e2e {

using deutero::Key;

/// SplitMix64. One stream per client; seeded from (run seed, client).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf-distributed ranks in [0, n) (Gray et al., SIGMOD '94, as in YCSB),
/// scrambled by a hash so the hot keys spread over the whole table instead
/// of clustering in its first leaves.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; i++) zetan += std::pow(1.0 / i, theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan);
    half_pow_theta_ = std::pow(0.5, theta);
  }

  Key Next(Rng* rng) const {
    const double u = rng->Unit();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + half_pow_theta_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return Fnv1a(rank) % n_;
  }

 private:
  static uint64_t Fnv1a(uint64_t v) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 8; i++) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  uint64_t n_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

/// The row payload of `key` at `version`. Version 0 is what Engine::Open
/// bulk-loads; later versions are this benchmark's own bytes.
inline void FillValue(Key key, uint32_t version, uint32_t size, uint8_t* out) {
  if (version == 0) {
    deutero::SynthesizeValue(key, 0, size, out);
    return;
  }
  uint64_t x = (key + 1) * 0xd6e8feb86659fd93ULL ^ (uint64_t{version} << 32);
  for (uint32_t i = 0; i < size; i++) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    out[i] = static_cast<uint8_t>(x >> 56);
  }
}

/// Expected committed version of every key. Writers record the old value
/// in their transaction's undo list, so an open transaction lost in the
/// crash is rolled back here exactly as recovery must roll it back.
/// Concurrent clients write disjoint key ranges, hence disjoint elements.
class Oracle {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  using UndoList = std::vector<std::pair<Key, uint32_t>>;

  explicit Oracle(uint64_t rows) : version_(rows, 0) {}

  uint64_t domain() const { return version_.size(); }
  uint32_t Get(Key key) const {
    return key < version_.size() ? version_[key] : kAbsent;
  }
  /// Set `key`'s version; the caller grows the domain first (single
  /// writer) when `key` is past its end.
  void Set(Key key, uint32_t version, UndoList* undo) {
    undo->emplace_back(key, version_[key]);
    version_[key] = version;
  }
  void Grow(Key key) {
    if (key >= version_.size()) version_.resize(key + 1, kAbsent);
  }
  void Rollback(UndoList* undo) {
    for (auto it = undo->rbegin(); it != undo->rend(); ++it) {
      version_[it->first] = it->second;
    }
    undo->clear();
  }
  /// Negative control: make the oracle expect a version nobody wrote.
  void Corrupt(Key key) {
    version_[key] = version_[key] == kAbsent ? 0 : version_[key] + 1;
  }

 private:
  std::vector<uint32_t> version_;
};

/// A set of keys with O(1) insert, erase and uniform pick. The mixed
/// workload keeps its live keys (update, delete, read, scan targets) in one.
class KeySet {
 public:
  bool Contains(Key key) const {
    return key < pos_.size() && pos_[key] != kNone;
  }
  size_t size() const { return keys_.size(); }
  void Add(Key key) {
    if (key >= pos_.size()) pos_.resize(key + 1, kNone);
    pos_[key] = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
  }
  void Erase(Key key) {
    const uint32_t at = pos_[key];
    keys_[at] = keys_.back();
    pos_[keys_[at]] = at;
    keys_.pop_back();
    pos_[key] = kNone;
  }
  Key Pick(Rng* rng) const { return keys_[rng->Below(keys_.size())]; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  std::vector<Key> keys_;
  std::vector<uint32_t> pos_;
};

}  // namespace e2e
