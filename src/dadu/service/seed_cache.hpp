// Warm-start seed cache: workspace target -> previously converged
// joint solution.
//
// IK iteration count is dominated by how far the seed is from a
// solution; trajectory_solver already exploits this per trajectory by
// seeding each waypoint with the previous solve.  The cache makes the
// same trick a *service-level* asset shared across independent
// requests: real traffic clusters (pick points, shelves, tool poses),
// so the converged theta of one request is an excellent seed for the
// next request nearby.
//
// Index structure: a uniform grid over workspace positions.  A target
// hashes to the cell containing it; lookup probes that cell (plus the
// 26 neighbours, so hits do not fall off a cliff at cell borders) and
// returns the entry nearest to the query within `max_distance`.  Cells
// live in shards, each with its own mutex and hash map — concurrent
// workers on different regions of the workspace never contend
// (mutex-striped, the classic concurrent-hash-map layout).  Each probe
// locks exactly one shard at a time, so there is no lock ordering to
// get wrong.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::service {

struct SeedCacheConfig {
  /// Grid cell edge (m).  Should be a few multiples of the solve
  /// accuracy: coarser cells raise hit rate but serve worse seeds.
  double cell_size = 0.05;
  /// Accept a cached entry only within this distance of the query (m).
  /// Defaults to the cell size so the home cell plus neighbours cover
  /// the whole acceptance ball.
  double max_distance = 0.05;
  /// Mutex stripes.  More shards = less contention; 16 is plenty for
  /// tens of workers.
  std::size_t shards = 16;
  /// Entries kept per cell (ring replacement beyond that): bounds the
  /// cache footprint under sustained traffic.
  std::size_t max_entries_per_cell = 4;
  /// Probe the 26 adjacent cells too (hit quality at cell borders at
  /// ~27x the probe cost of the home cell — still trivial vs a solve).
  bool search_neighbors = true;
  /// Test seam: keep only this many low bits of the mixed 64-bit cell
  /// hash (0..64; 64 = full hash).  Narrow widths force distinct cells
  /// to collide, exercising the coordinate-equality disambiguation —
  /// correctness never depends on the hash being collision-free.
  unsigned hash_bits = 64;
};

/// Monotonic counters (snapshot; see SeedCache::stats()).
struct SeedCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;  ///< ring-replaced entries

  double hitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class SeedCache {
 public:
  explicit SeedCache(SeedCacheConfig config = {});

  SeedCache(const SeedCache&) = delete;
  SeedCache& operator=(const SeedCache&) = delete;

  /// Nearest cached solution within config.max_distance of `target`;
  /// writes it to `seed` and returns true on a hit.  Thread-safe.
  bool lookup(const linalg::Vec3& target, linalg::VecX& seed) const;

  /// Record a converged solution for `target`.  Thread-safe.
  void insert(const linalg::Vec3& target, const linalg::VecX& theta);

  SeedCacheStats stats() const;
  std::size_t size() const;  ///< total cached entries
  void clear();              ///< drop entries (stats are kept)

  const SeedCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    linalg::Vec3 target;
    linalg::VecX theta;
  };
  struct Cell {
    std::vector<Entry> entries;
    std::size_t next_slot = 0;  ///< ring replacement cursor
  };
  /// Exact quantized grid coordinates.  Cells are keyed by coordinate,
  /// not by hash: two distinct cells whose 64-bit hashes collide must
  /// stay distinct cells (hash collisions only cost a shared bucket,
  /// never aliased contents).
  struct CellCoord {
    std::int64_t ix = 0;
    std::int64_t iy = 0;
    std::int64_t iz = 0;
    bool operator==(const CellCoord& o) const {
      return ix == o.ix && iy == o.iy && iz == o.iz;
    }
  };
  struct CellHash {
    std::uint64_t mask;  ///< hash_bits truncation
    CellHash() : mask(~std::uint64_t{0}) {}
    explicit CellHash(std::uint64_t m) : mask(m) {}
    std::size_t operator()(const CellCoord& c) const;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<CellCoord, Cell, CellHash> cells;
  };

  std::int64_t quantize(double v) const;
  CellCoord cellOf(const linalg::Vec3& p) const;
  std::uint64_t cellHash(const CellCoord& c) const;
  Shard& shardFor(const CellCoord& c) const;
  /// Probe one cell under its shard lock, tightening (best_d2, found).
  void probeCell(const CellCoord& coord, const linalg::Vec3& target,
                 double& best_d2, linalg::VecX& seed, bool& found) const;

  std::uint64_t hash_mask_ = ~std::uint64_t{0};

  SeedCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace dadu::service
