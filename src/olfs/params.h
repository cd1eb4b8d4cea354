// OLFS tunables, with defaults matching the paper's prototype (§5.1).
#ifndef ROS_SRC_OLFS_PARAMS_H_
#define ROS_SRC_OLFS_PARAMS_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/drive/disc.h"
#include "src/drive/optical_drive.h"
#include "src/sim/retry.h"
#include "src/sim/time.h"

namespace ros::olfs {

// How a burn task behaves when a read misses on a disc whose array is
// being burned (§4.8).
enum class BusyDrivePolicy {
  kWaitForBurn,       // wait for the burning task to finish
  kInterruptAndSwap,  // interrupt, swap arrays, resume in append-burn mode
};

struct OlfsParams {
  // Media and redundancy schema (§4.7): 12-disc arrays, 11 data + 1 parity
  // (RAID-5) by default; 10 + 2 (RAID-6) under rigid requirements.
  drive::DiscType disc_type = drive::DiscType::kBdr25;
  // Shrinks media capacity for laptop-scale tests (0 = native capacity).
  std::uint64_t disc_capacity_override = 0;
  int parity_images = 1;

  // Forepart-data-stored mechanism (§4.8): first bytes of each file kept in
  // MV so reads can answer within ~2 ms while a disc is fetched.
  bool forepart_enabled = false;
  std::uint64_t forepart_bytes = 256 * kKiB;

  // Read cache (§4.1): disc-image-granular segmented-LRU capacity on the
  // disk buffer.
  std::uint64_t read_cache_bytes = 50 * kTB;

  // Fetch scheduling (§4.1: the MC "optimizes the usage of mechanical
  // resources"): queued fetches are grouped by tray (one load/unload cycle
  // drains every waiter of that tray) and dispatched in the order that
  // minimizes roller rotation + arm travel. A queued fetch older than this
  // aging bound is dispatched strict-FIFO regardless of positioning cost,
  // so tail latency under hostile locality is bounded by (aging bound +
  // one unload/load cycle). Negative disables aging; zero makes every
  // queued request immediately aged, i.e. strict FIFO.
  sim::Duration fetch_aging_bound = sim::Seconds(300);

  // Cross-layer hints (DESIGN.md §5g). Three optimizations key off
  // AccessHint::stream, so untagged traffic is unaffected by them:
  //   - Affinity placement: burn batches cluster images co-accessed by one
  //     stream onto the same array (tray) instead of pure close order.
  //   - Tray prefetch: the per-stream successor model enqueues speculative
  //     loads through the FetchScheduler's background class.
  //   - Whole-tray readahead: a scan-hinted read stages up to
  //     Olfs::kReadaheadMaxImages burned siblings of the fetched tray into
  //     the read cache's probationary segment.

  // How many closed images beyond the array quota to accumulate before
  // forming an affinity-clustered burn batch. A batch formed the moment
  // the quota is reached (the close-order timing) leaves the clusterer no
  // choice of membership; the window trades burn latency for placement
  // quality. Only consulted once tagged traffic has recorded co-access
  // edges — untagged workloads keep the original fire-at-quota timing.
  // Negative selects the default (one extra array's worth).
  int affinity_batch_window = -1;

  // Resolved affinity window (see affinity_batch_window).
  int affinity_window() const {
    return affinity_batch_window >= 0 ? affinity_batch_window
                                      : data_images_per_array();
  }

  // File-granular cache + prefetch (§4.1's future-work refinement):
  // files read from discs are retained individually (0 disables), and up
  // to `prefetch_siblings` directory neighbours are pulled in behind a
  // cold read (spatial locality across analytics scans).
  std::uint64_t file_cache_bytes = 0;
  int prefetch_siblings = 0;

  // Software-overhead model (§5.3 / Fig 7): each OLFS internal operation
  // (stat/mknod/write/read/close through FUSE) averages ~2.5 ms including
  // its direct I/O; this constant is the FUSE+OLFS software share, the
  // remainder being the operation's actual MV / disk-buffer access. A
  // kernel-user mode switch separates consecutive internal operations.
  sim::Duration internal_op_cost = sim::Millis(2.3);
  sim::Duration mode_switch_cost = sim::Micros(800);
  // Streaming data-path requests (FUSE write()/read() on an open handle)
  // avoid the metadata-path work; their per-request software cost is much
  // smaller (calibrated so ext4+OLFS streams at Fig 6's 433/648 MB/s).
  sim::Duration stream_op_cost = sim::Micros(200);

  // Burn scheduling: a burn task is created when a full array's worth of
  // data images is ready (§4.3). The controller staggers burn starts while
  // it stages each image to its drive (Fig 9).
  BusyDrivePolicy busy_drive_policy = BusyDrivePolicy::kWaitForBurn;

  // --- Decades-scale preservation (DESIGN.md §5j) ---
  // Media aging: deterministic per-disc latent-sector-error accrual that
  // grows with disc age and eases with burn generation. Disabled by
  // default, and a disabled model is byte- and tick-identical to none.
  drive::MediaAgingParams media_aging;
  // Scrub pass policy: with refresh enabled, an array found damaged (or
  // older than `refresh_age_years`, 0 = age never triggers) is refreshed —
  // every data member re-staged (damaged ones reconstructed from parity)
  // and re-burned onto fresh media, the old tray retired — so error
  // accumulation never exceeds what parity can recover. With refresh
  // disabled the scrub only repairs damaged members in place.
  bool scrub_refresh_enabled = true;
  double refresh_age_years = 0.0;
  // Generation migration: the first refresh switches blank-media
  // allocation to `migration_disc_type` (higher density, slower rot), so
  // refresh burns double as media-generation upgrades.
  bool generation_migration_enabled = false;
  drive::DiscType migration_disc_type = drive::DiscType::kBdr100;
  // Merkle audit manifests (built at burn time, persisted in the MV):
  // sampled leaf verification proves array integrity without full reads.
  std::uint64_t audit_leaf_bytes = 256 * kKiB;

  // Self-healing budget: transient (kUnavailable) mechanical faults during
  // a fetch re-run bay selection under `mech_retry`.
  sim::RetryPolicy mech_retry{.max_attempts = 3,
                              .initial_backoff = sim::Seconds(2)};

  // 11 (RAID-5) or 10 (RAID-6) data images per 12-disc array.
  int data_images_per_array() const { return 12 - parity_images; }

  std::uint64_t disc_capacity() const {
    return disc_capacity_override != 0 ? disc_capacity_override
                                       : drive::DiscCapacity(disc_type);
  }

  // Disk-buffer headroom reserved for the burn pipeline's own I/O
  // (parity images, checkpoints): user writes are refused once a volume's
  // free space drops below this, so the pipeline can always drain.
  std::uint64_t buffer_reserve_bytes() const {
    return 2 * bucket_capacity() + 16 * kMiB;
  }

  // Capacity available to a bucket/disc image. Under the
  // interrupt-and-swap policy every disc pre-formats a reserved metadata
  // zone (§4.8), which images must leave room for.
  std::uint64_t bucket_capacity() const {
    const std::uint64_t cap = disc_capacity();
    if (busy_drive_policy == BusyDrivePolicy::kInterruptAndSwap) {
      return cap - drive::MetadataZoneBytes(cap);
    }
    return cap;
  }
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_PARAMS_H_
