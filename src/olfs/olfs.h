// The Optical Library File System (OLFS) facade — the PI module (§4.1).
//
// Olfs exposes the POSIX-style global namespace and orchestrates all the
// subsystems underneath: the metadata volume (index files), preliminary
// bucket writing, delayed parity, burn/fetch task management, the read
// cache and the mechanical controller. Every operation both performs the
// real work (bytes move through the volumes, images, discs) and charges
// the paper's measured software-overhead model: ~2.5 ms per internal OLFS
// operation plus a kernel-user mode switch between consecutive operations
// (Fig 7).
#ifndef ROS_SRC_OLFS_OLFS_H_
#define ROS_SRC_OLFS_OLFS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/olfs/affinity.h"
#include "src/olfs/audit.h"
#include "src/olfs/bucket_manager.h"
#include "src/olfs/burn_manager.h"
#include "src/olfs/da_index.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/fetch_manager.h"
#include "src/olfs/fetch_scheduler.h"
#include "src/olfs/file_cache.h"
#include "src/olfs/hints.h"
#include "src/olfs/mech_controller.h"
#include "src/olfs/metadata_volume.h"
#include "src/olfs/params.h"
#include "src/olfs/parity.h"
#include "src/olfs/read_cache.h"
#include "src/olfs/scrub.h"
#include "src/olfs/system.h"
#include "src/olfs/tray_predictor.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ros::olfs {

struct FileInfo {
  std::uint64_t size = 0;
  int version = 0;
  bool is_directory = false;
  LocationKind location = LocationKind::kBucket;
};

struct RecoveryReport {
  int discs_scanned = 0;
  int images_parsed = 0;
  int files_recovered = 0;
  int unreadable_discs = 0;
};

class Olfs {
 public:
  Olfs(sim::Simulator& sim, RosSystem* system, OlfsParams params = {});

  // Background loops suspended in a Delay resume after the facade is
  // gone; they hold a copy of this flag and bail without touching the
  // dead object. Pair with Quiesce when tearing down mid-simulation.
  ~Olfs();

  // ------------------------------------------------------------------
  // POSIX-style interface (PI)
  // ------------------------------------------------------------------

  // Creates a new file (fails if it exists). `data` may be sparse
  // relative to `logical_size` (pass data.size() for fully-real files).
  // A tagged hint (AccessHint::stream != 0) records co-access edges so
  // the burn planner co-locates the stream's files on one tray.
  sim::Task<Status> Create(std::string path,
                           std::vector<std::uint8_t> data,
                           std::uint64_t logical_size,
                           AccessHint hint = {});
  sim::Task<Status> Create(std::string path,
                           std::vector<std::uint8_t> data);

  // Regenerating update (§4.6): writes a new version of an existing file.
  sim::Task<Status> Update(std::string path,
                           std::vector<std::uint8_t> data,
                           std::uint64_t logical_size);

  // Create-or-update: decides under the path lock whether `path` exists
  // and charges what Create or Update would. The hint reaches either.
  sim::Task<Status> Write(std::string path, std::vector<std::uint8_t> data,
                          std::uint64_t logical_size, AccessHint hint = {});

  // Appending update: grows the latest version in place. The bytes go
  // into its last part's bucket while that bucket is open, else into a
  // §4.5 continuation part in fresh buckets; nothing is read back.
  sim::Task<Status> Append(std::string path,
                           std::vector<std::uint8_t> data);

  // Reads the latest version. A tagged hint feeds the tray predictor
  // (speculative prefetch of the stream's likely next tray); a scan hint
  // additionally triggers whole-tray readahead of sibling images.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(std::string path,
                                                      std::uint64_t offset,
                                                      std::uint64_t length,
                                                      AccessHint hint = {});

  // Reads a historic version still in the index ring (data provenance).
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadVersion(
      std::string path, int version, std::uint64_t offset,
      std::uint64_t length);

  // Serves the first bytes of a file from MV within ~2 ms (§4.8's
  // forepart-data-stored mechanism). Requires forepart_enabled.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadForepart(
      std::string path);

  // ------------------------------------------------------------------
  // Streaming handles (the FUSE open / write* / release sequence): each
  // AppendStream/ReadStream charges a single internal operation. This is
  // the data path behind filebench's singlestream workloads (Fig 6). A
  // handle holds the version it opened on; AppendStream grows it like
  // Append, under the path lock. CloseStream waits on that lock and
  // commits the grown version onto the current index (later versions
  // survive); a handle that only read commits nothing.
  // ------------------------------------------------------------------
  sim::Task<Status> AppendStream(std::string path,
                                 std::vector<std::uint8_t> data,
                                 std::uint64_t logical_grow,
                                 AccessHint hint = {});
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadStream(
      std::string path, std::uint64_t offset, std::uint64_t length,
      AccessHint hint = {});
  sim::Task<Status> CloseStream(std::string path);

  sim::Task<StatusOr<FileInfo>> Stat(std::string path);
  sim::Task<Status> Mkdir(std::string path);
  sim::Task<StatusOr<std::vector<std::string>>> ReadDir(
      std::string path);
  // Logical delete: a tombstone version (WORM media keeps the bytes).
  sim::Task<Status> Unlink(std::string path);

  // ------------------------------------------------------------------
  // Control plane
  // ------------------------------------------------------------------

  // Closes the open bucket and burns everything pending, including a
  // partial final array; waits for the pipeline to drain.
  sim::Task<Status> FlushAndDrain();

  // Burns a snapshot of the MV namespace as a disc image (§4.2).
  sim::Task<Status> BurnMvSnapshot();

  // Background policies:
  //  - "MV is periodically burned into discs" (§4.2): a snapshot image is
  //    admitted to the burn pipeline every `interval` while dirty;
  //  - stale buffered data is flushed (a "pre-defined burning policy",
  //    §4.3) when the open bucket has been idle for `interval`.
  //  - burned arrays are scrubbed during idle periods (§4.7) every
  //    `scrub_interval`: one ScrubManager::RunPass, which repairs damaged
  //    members from parity before any refresh (DESIGN.md §5j).
  // All run until the simulation ends. Intervals of 0 disable them.
  void StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                               sim::Duration auto_flush_interval,
                               sim::Duration scrub_interval = 0);

  // Reconstructs one damaged image from its array's parity and re-stages
  // it for a re-burn onto fresh media.
  sim::Task<Status> RecoverAndRepairImage(std::string image_id);

  // Refresh burn (DESIGN.md §5j): re-stages a *healthy* burned image so
  // the pipeline re-burns it onto fresh media — from the cached copy when
  // one exists, else a disc-to-disc read through the scheduler's
  // background class, else parity reconstruction.
  sim::Task<Status> RefreshImage(std::string image_id);

  // Rebuilds the global namespace by physically scanning the given disc
  // arrays (§4.4), each claimed through the FetchScheduler. Wipes the
  // current MV first. Used after MV loss. Returns kInvalidArgument, with
  // nothing wiped, if any tray lies outside the rack.
  sim::Task<StatusOr<RecoveryReport>> RebuildNamespace(
      std::vector<mech::TrayAddress> trays);

  // Quiesces the facade for a mid-simulation teardown (rack kill /
  // controller replacement, DESIGN.md §5k): permanently stops the
  // background policy loops, then waits until no background pass,
  // detached prefetch/readahead task, active burn, or queued fetch is
  // still running. After it completes (and with no foreground operation
  // in flight — the caller's responsibility) destroying this Olfs is
  // safe even while the simulation keeps running.
  sim::Task<void> Quiesce();

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  // Internal-op trace of the most recent PI operation (Fig 7).
  const std::vector<std::string>& last_op_trace() const { return op_trace_; }

  // Self-healing telemetry: reads served degraded (the disc read failed),
  // successful parity reconstructions, and images re-staged for re-burn.
  std::uint64_t degraded_reads() const { return degraded_reads_; }
  std::uint64_t reconstructions() const { return reconstructions_; }
  std::uint64_t images_repaired() const { return images_repaired_; }

  // Reads of a disc image served from a concurrent reader's in-flight
  // drive read (image-level single-flight) instead of re-reading media.
  std::uint64_t shared_image_reads() const { return shared_image_reads_; }

  // Paths whose write lock a task holds or awaits right now.
  std::size_t locked_paths() const { return path_locks_.size(); }

  // Whole-tray readahead telemetry: sibling images staged into the read
  // cache behind scan-hinted reads, and their logical bytes.
  std::uint64_t readahead_images() const { return readahead_images_; }
  std::uint64_t readahead_bytes() const { return readahead_bytes_; }

  RosSystem& system() { return *system_; }
  MetadataVolume& mv() { return *mv_; }
  DiscImageStore& images() { return *images_; }
  BucketManager& buckets() { return *buckets_; }
  BurnManager& burns() { return *burns_; }
  ParityBuilder& parity() { return *parity_; }
  FetchManager& fetches() { return *fetcher_; }
  FetchScheduler* fetch_scheduler() { return scheduler_.get(); }
  ReadCache& cache() { return *cache_; }
  FileCache& file_cache() { return *file_cache_; }
  MechController& mech() { return *mech_; }
  DaIndex& da_index() { return *da_; }
  AffinityTracker& affinity() { return *affinity_; }
  TrayPredictor& predictor() { return *predictor_; }
  AuditRegistry& audit() { return *audit_; }
  ScrubManager& scrub() { return *scrub_; }
  sim::Simulator& simulator() { return sim_; }
  const OlfsParams& params() const { return params_; }

 private:
  // Charges one internal OLFS operation (plus the mode switch separating
  // it from the previous one) and records it in the trace.
  sim::Task<void> ChargeOp(const char* name, bool first = false);

  // One background policy: every `interval` while the facade is alive,
  // runs `pass` when `due()` holds, as a frame Quiesce waits out.
  sim::Task<void> PeriodicLoop(sim::Duration interval,
                               std::shared_ptr<const bool> alive,
                               std::function<bool()> due,
                               std::function<sim::Task<void>()> pass);

  // Wraps a detached task (prefetch, tray readahead) so Quiesce can wait
  // for every frame that borrows this facade to finish.
  sim::Task<void> TrackDetached(sim::Task<void> task);
  void FrameDone();

  // Ensures every ancestor directory has an MV index entry.
  sim::Task<Status> EnsureAncestors(std::string path);

  // The one commit step of every index change (DESIGN.md §5n), run under
  // the caller's LockPath(path): reads the index as it now stands (or a
  // new one of type `fresh`), runs `edit` on it (which may first write
  // the data it records; a failed edit commits nothing), marks the
  // namespace written and writes the index back, or removes the entry if
  // the edit reset it to IndexFile{}.
  using IndexEdit = std::function<sim::Task<Status>(IndexFile&)>;
  sim::Task<Status> CommitIndex(std::string path, IndexEdit edit,
                                std::optional<EntryType> fresh = {});

  // Create, Update and Write under the path lock: charges Fig 7's ops,
  // then writes and commits the next version (after the ancestors and a
  // new path's empty index, on the create branch).
  enum class WriteMode { kCreate, kUpdate, kCreateOrUpdate };
  sim::Task<Status> WriteVersion(std::string path,
                                 std::vector<std::uint8_t> data,
                                 std::uint64_t logical_size, AccessHint hint,
                                 WriteMode mode);

  // Append's and AppendStream's append-or-continue step: `entry` grown
  // in its last part's bucket while that is open, else by a first or
  // §4.5 continuation part in fresh buckets.
  sim::Task<StatusOr<VersionEntry>> GrowVersion(
      std::string path, VersionEntry entry, std::vector<std::uint8_t> data,
      std::uint64_t logical_grow, std::uint64_t stream);

  // Implicit open() of a streaming handle on `path`'s latest version.
  sim::Task<Status> OpenStream(std::string path);

  // Reads `length` bytes at `offset` of a resolved version entry.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadEntry(
      std::string path, VersionEntry entry,
      std::uint64_t offset, std::uint64_t length, AccessHint hint = {});

  // Reads a byte range of one part, resolving its current tier.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadPart(
      std::string internal_path, FilePart part,
      std::uint64_t offset, std::uint64_t length, AccessHint hint = {});

  // The one way to read a burned image off its disc (DESIGN.md §5h).
  // Single-flight per image: a caller that finds a read of the image in
  // flight waits for it and takes the parsed view it produced, charging a
  // controller-memory copy of its `charge` bytes (none for kWholeImage:
  // the caller keeps the view). Otherwise it leads: LeadDiscRead fetches
  // the disc through `fetch_class`, charges an optical read of the first
  // `charge` bytes of the stream (kWholeImage: all of it) without copying
  // them, and only then takes the view from MountedView.
  static constexpr std::uint64_t kWholeImage = ~std::uint64_t{0};
  sim::Task<StatusOr<std::shared_ptr<udf::Image>>> ReadDiscImage(
      std::string image_id, FetchClass fetch_class, std::uint64_t charge);
  sim::Task<StatusOr<std::shared_ptr<udf::Image>>> LeadDiscRead(
      std::string image_id, FetchClass fetch_class, std::uint64_t charge);

  // The parsed view of `image_id` on `disc`, which the caller holds in a
  // fetched drive: from disc_mounts_ when it was parsed off this disc at
  // its current generation, else parsed from an untimed copy of the
  // session. Host-only: a hit returns what a re-parse would, so it never
  // moves sim time.
  StatusOr<std::shared_ptr<udf::Image>> MountedView(
      const std::string& image_id, const drive::Disc& disc);

  // Background file-cache population: pulls the whole file (and up to
  // prefetch_siblings directory neighbours) off the fetched disc.
  sim::Task<void> PrefetchTask(std::string image_id,
                               std::string internal_path);

  // Whole-tray readahead (scan hint): stages up to kReadaheadMaxImages
  // burned sibling images of the tray just fetched into the read cache's
  // probationary segment, so the rest of the scan reads from the disk
  // buffer instead of re-fetching the tray after an eviction.
  static constexpr int kReadaheadMaxImages = 16;
  sim::Task<void> TrayReadaheadTask(std::string image_id, int tray_index);
  // Reads one sibling's whole stream through ReadDiscImage
  // (FetchClass::kReadahead) and re-admits it as kBurnedCached.
  sim::Task<Status> StageSiblingImage(std::string image_id);

  // The one reconstruct step: rebuilds the stream of a damaged or
  // unreachable image from its array's surviving members + parity (§4.7),
  // charging the optical reads of every surviving member, parses it and
  // counts the reconstruction.
  sim::Task<StatusOr<std::shared_ptr<udf::Image>>> ReconstructImage(
      std::string image_id);

  // Stages a recovered image back into the disk buffer (tier kBuffered)
  // and queues its re-burn onto fresh media.
  sim::Task<Status> RepairImage(std::string image_id,
                                std::shared_ptr<udf::Image> image);

  sim::Simulator& sim_;
  RosSystem* system_;
  OlfsParams params_;

  std::unique_ptr<MetadataVolume> mv_;
  std::unique_ptr<DiscImageStore> images_;
  std::unique_ptr<AffinityTracker> affinity_;
  std::unique_ptr<TrayPredictor> predictor_;
  std::unique_ptr<BucketManager> buckets_;
  std::unique_ptr<ParityBuilder> parity_;
  std::unique_ptr<DaIndex> da_;
  std::unique_ptr<ReadCache> cache_;
  std::unique_ptr<FileCache> file_cache_;
  std::unique_ptr<MechController> mech_;
  std::unique_ptr<FetchScheduler> scheduler_;
  std::unique_ptr<BurnManager> burns_;
  std::unique_ptr<FetchManager> fetcher_;
  std::unique_ptr<AuditRegistry> audit_;
  std::unique_ptr<ScrubManager> scrub_;

  // Parsed views of disc images (the in-kernel UDF view), each with the
  // disc and disc generation it was parsed from; used only by MountedView.
  struct MountedImage {
    std::shared_ptr<udf::Image> view;
    const drive::Disc* disc = nullptr;
    std::uint64_t generation = 0;
  };
  std::map<std::string, MountedImage> disc_mounts_;

  // Image-level read single-flight: image id -> the read in flight, whose
  // leader sets `view` (on success) before `done`.
  struct ImageFlight {
    explicit ImageFlight(sim::Simulator& sim) : done(sim) {}
    sim::Event done;
    std::shared_ptr<udf::Image> view;
  };
  std::map<std::string, std::shared_ptr<ImageFlight>> image_reads_;

  // Open streaming handles: the version read or grown; only grown commits.
  struct StreamHandle {
    VersionEntry entry;
    bool grown = false;
  };
  std::map<std::string, StreamHandle> stream_handles_;

  // Per-path write serialization: concurrent mutations of one file are
  // read-modify-write cycles on its index and must not interleave. A
  // path's mutex stays in path_locks_ only while a task holds or awaits
  // it: the PathLock that releases it last erases it.
  using PathLocks = std::map<std::string, sim::Mutex>;
  class PathLock {
   public:
    PathLock(PathLocks* locks, PathLocks::iterator it,
             sim::Mutex::ScopedLock lock)
        : locks_(locks), it_(it), lock_(std::move(lock)) {}
    PathLock(PathLock&& other) noexcept
        : locks_(std::exchange(other.locks_, nullptr)),
          it_(other.it_),
          lock_(std::move(other.lock_)) {}
    PathLock& operator=(PathLock&&) = delete;
    ~PathLock();

   private:
    PathLocks* locks_;
    PathLocks::iterator it_;
    sim::Mutex::ScopedLock lock_;
  };
  sim::Task<PathLock> LockPath(std::string path);
  PathLocks path_locks_;

  std::vector<std::string> op_trace_;
  int mv_snapshot_counter_ = 0;
  int repaired_generation_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::uint64_t reconstructions_ = 0;
  std::uint64_t images_repaired_ = 0;
  std::uint64_t shared_image_reads_ = 0;
  // Whole-tray readahead: in-flight trays (dedup), staged counters, and a
  // generation suffix keeping staged buffer files unique.
  std::set<int> readahead_trays_;
  std::uint64_t readahead_images_ = 0;
  std::uint64_t readahead_bytes_ = 0;
  int readahead_generation_ = 0;
  // Marked by every CommitIndex; AppendStream's bucket writes also set
  // last_write_time_ (the auto-flush and scrub idle test).
  std::uint64_t namespace_writes_ = 0;
  std::uint64_t last_snapshot_writes_ = 0;
  sim::TimePoint last_write_time_ = 0;
  // Teardown support (Quiesce): liveness flag shared with the background
  // loops, and the frames that borrow this facade (loop bodies mid-pass,
  // detached tasks); the last FrameDone signals frames_done_.
  std::shared_ptr<bool> bg_alive_ = std::make_shared<bool>(true);
  int live_frames_ = 0;
  sim::ConditionVariable frames_done_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_OLFS_H_
