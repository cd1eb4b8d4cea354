// Optical disc media model (§2.1).
//
// A disc is WORM (BD-R) or rewritable (BD-RE). Burned data lives in
// sessions (tracks); WORM media only ever appends new sessions
// ("pseudo-overwrite" — previously burned area is lost capacity), while RE
// media can be erased a limited number of times (~1000 cycles). Session
// payloads are stored sparsely: `data` may be shorter than `logical_size`,
// with the tail reading as zeros, so PB-scale experiments do not need
// PB-scale memory while timing still uses logical sizes.
//
// Sector bit-rot is modelled explicitly: sectors can be marked corrupted
// (archive-grade BD has a ~1e-16 sector error rate, §4.7), reads covering a
// corrupted sector fail with kDataLoss, and the scrubber enumerates them.
#ifndef ROS_SRC_DRIVE_DISC_H_
#define ROS_SRC_DRIVE_DISC_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace ros::drive {

inline constexpr std::uint64_t kSectorSize = 2 * kKiB;  // BD/UDF sector

enum class DiscType {
  kBdr25,    // 25 GB write-once
  kBdr100,   // 100 GB (BDXL) write-once
  kBdre25,   // 25 GB rewritable
};

constexpr std::uint64_t DiscCapacity(DiscType type) {
  switch (type) {
    case DiscType::kBdr25: return 25 * kGB;
    case DiscType::kBdr100: return 100 * kGB;
    case DiscType::kBdre25: return 25 * kGB;
  }
  return 0;
}

constexpr bool IsWorm(DiscType type) { return type != DiscType::kBdre25; }

// Maximum erase cycles for rewritable media (§2.1: "at most 1000").
inline constexpr int kMaxEraseCycles = 1000;

// Media aging model (§4.7, DESIGN.md §5j): latent sector errors accrue
// with *time*, not with access. Each disc materializes its accrued errors
// lazily, one fixed epoch at a time, from a per-(disc, epoch) seeded RNG —
// so the damage a disc carries at sim-time T is a pure function of
// (seed, disc id, burned area, T), independent of when or how often the
// disc is observed, and double runs replay bit-identically. Disabled
// (the default) the model consumes no randomness and touches nothing.
struct MediaAgingParams {
  bool enabled = false;
  // Expected latent sector errors per burned sector per sim-year on
  // new-generation reference media (age 0, factor 1.0).
  double lse_per_sector_year = 0.0;
  // Linear growth of that rate per year of media age: the effective rate
  // at age A is lse_per_sector_year * (1 + growth_per_year * A).
  double growth_per_year = 0.0;
  // Per-generation quality multipliers — later, higher-density archival
  // generations rot slower, which is what makes refresh-with-migration
  // worth the burn cost.
  double bdr25_factor = 1.0;
  double bdr100_factor = 0.25;
  double bdre25_factor = 2.0;
  // Extra per-read latent-sector-error probability per year of age, fed
  // to FaultInjector::ShouldInjectAged by the drive's read hook (models
  // marginal sectors that only fail under the read head).
  double read_fault_per_year = 0.0;
  // Accrual quantum: errors materialize per whole elapsed epoch.
  std::int64_t epoch_ns = 30LL * 24 * 3600 * 1000000000LL;  // ~1 month
  std::uint64_t seed = 1;

  double generation_factor(DiscType type) const {
    switch (type) {
      case DiscType::kBdr25: return bdr25_factor;
      case DiscType::kBdr100: return bdr100_factor;
      case DiscType::kBdre25: return bdre25_factor;
    }
    return 1.0;
  }

  // Extra read-fault rate for ShouldInjectAged at the given age.
  double read_boost(double age_years, DiscType type) const {
    if (!enabled || age_years <= 0.0) {
      return 0.0;
    }
    return read_fault_per_year * generation_factor(type) * age_years;
  }
};

inline constexpr double kNsPerYear = 365.0 * 24 * 3600 * 1e9;

// One burned track. `image_id` ties the session to an OLFS disc image.
struct Session {
  std::string image_id;
  std::uint64_t start = 0;         // byte offset of the session on disc
  std::uint64_t logical_size = 0;  // bytes the session occupies
  std::vector<std::uint8_t> data;  // real payload (may be < logical_size)
  bool closed = false;
};

class Disc {
 public:
  // `capacity_override` shrinks the media for laptop-scale experiments
  // (0 keeps the type's native capacity). Timing models scale with it.
  Disc(std::string id, DiscType type, std::uint64_t capacity_override = 0)
      : id_(std::move(id)), type_(type),
        capacity_(capacity_override != 0 ? capacity_override
                                         : DiscCapacity(type)) {}

  const std::string& id() const { return id_; }
  DiscType type() const { return type_; }
  std::uint64_t capacity() const { return capacity_; }

  // Bytes consumed by burned sessions (including abandoned pseudo-overwrite
  // areas on WORM media).
  std::uint64_t burned_bytes() const { return next_start_; }
  std::uint64_t free_bytes() const { return capacity() - next_start_; }
  bool blank() const { return sessions_.empty(); }
  int erase_cycles_used() const { return erase_cycles_; }
  const std::vector<Session>& sessions() const { return sessions_; }

  // Bumped by every change to what a read of the media returns: a burn,
  // an erase, a corrupted sector, tampering. Equal generations of one disc
  // read back the same bytes and the same damage.
  std::uint64_t generation() const { return generation_; }

  // Appends a session. The burn itself (and its delay) is driven by
  // OpticalDrive; this records the outcome on the media. Fails if the
  // payload does not fit in the remaining capacity.
  Status AppendSession(std::string image_id, std::uint64_t logical_size,
                       std::vector<std::uint8_t> data, bool closed);

  // Extends the open trailing session (append-burn resume after an
  // interrupt) to `new_logical_size`, replacing its payload and optionally
  // closing it. Keeps the burned-bytes accounting consistent.
  Status ExtendOpenSession(const std::string& image_id,
                           std::uint64_t new_logical_size,
                           std::vector<std::uint8_t> data, bool closed);

  // Erases a rewritable disc; fails on WORM media or exhausted cycles.
  Status Erase();

  // Looks up the session holding `image_id`.
  StatusOr<const Session*> FindSession(const std::string& image_id) const;

  // Reads `length` bytes at `offset` within the named session. Fails with
  // kDataLoss if the range covers a corrupted sector. CheckSession fails
  // the same way and copies nothing.
  StatusOr<const Session*> CheckSession(const std::string& image_id,
                                        std::uint64_t offset,
                                        std::uint64_t length) const;
  StatusOr<std::vector<std::uint8_t>> ReadSession(const std::string& image_id,
                                                  std::uint64_t offset,
                                                  std::uint64_t length) const;

  // --- fault injection & scrubbing ---

  // Marks the sector at absolute disc offset `sector * kSectorSize` bad.
  void CorruptSector(std::uint64_t sector) {
    corrupted_.insert(sector);
    ++generation_;
  }
  // Enumerates corrupted sectors in burned area. A test oracle only
  // (disc_test, preservation_test): the system finds damage by reading it
  // back, through ScrubManager::RunPass.
  std::vector<std::uint64_t> ScrubForErrors() const;
  bool HasCorruption() const { return !corrupted_.empty(); }

  // Flips bits in a session's stored payload *without* marking the sector
  // bad: reads succeed and return the tampered bytes, so only a checksum
  // audit can tell. Used to stage provable silent-corruption scenarios.
  Status TamperSessionData(const std::string& image_id, std::uint64_t offset,
                           std::uint8_t xor_mask);

  // --- media aging (DESIGN.md §5j) ---

  // Stamped by the drive at the disc's first successful burn; age is
  // measured from here. Idempotent: later burns keep the original birth.
  void StampBirth(std::int64_t now_ns) {
    if (birth_ns_ < 0) {
      birth_ns_ = now_ns;
    }
  }
  std::int64_t birth_time_ns() const { return birth_ns_; }
  double AgeYears(std::int64_t now_ns) const {
    return birth_ns_ < 0 ? 0.0
                         : static_cast<double>(now_ns - birth_ns_) /
                               kNsPerYear;
  }

  // Lazily materializes the latent sector errors the aging process accrued
  // up to `now_ns` (whole epochs since birth only). Returns the number of
  // newly corrupted sectors. No-op (and RNG-free) when aging is disabled,
  // the disc was never burned, or no new epoch has elapsed.
  int AdvanceAging(std::int64_t now_ns, const MediaAgingParams& params);
  std::uint64_t aged_errors() const { return aged_errors_; }

 private:
  std::string id_;
  DiscType type_;
  std::uint64_t capacity_;
  std::vector<Session> sessions_;
  std::uint64_t next_start_ = 0;
  int erase_cycles_ = 0;
  std::set<std::uint64_t> corrupted_;
  std::int64_t birth_ns_ = -1;      // first-burn sim time; -1 = blank
  std::int64_t aged_epochs_ = 0;    // whole epochs already materialized
  std::uint64_t aged_errors_ = 0;   // sectors corrupted by aging
  std::uint64_t generation_ = 0;
};

}  // namespace ros::drive

#endif  // ROS_SRC_DRIVE_DISC_H_
