#include "src/olfs/maintenance.h"

#include <limits>

#include "src/udf/serializer.h"

namespace ros::olfs {

namespace {

const char* TierName(ImageTier tier) {
  switch (tier) {
    case ImageTier::kOpenBucket: return "open-bucket";
    case ImageTier::kBuffered: return "buffered";
    case ImageTier::kBurnedCached: return "burned+cached";
    case ImageTier::kBurnedOnly: return "burned";
  }
  return "?";
}

// Type- and range-checked reads of a controller checkpoint. The first
// failure is kept as kDataLoss and later reads return empty values, so a
// decode runs straight through and checks status() once, before any of
// the checkpoint is applied.
class CheckpointReader {
 public:
  std::int64_t Int(const json::Value& v, std::int64_t limit,
                   const char* what) {
    if (v.is_int() && v.as_int() >= 0 && v.as_int() < limit) {
      return v.as_int();
    }
    Fail(what);
    return 0;
  }
  std::string String(const json::Value& v, const char* what) {
    if (v.is_string()) {
      return v.as_string();
    }
    Fail(what);
    return "";
  }
  bool Bool(const json::Value& v, const char* what) {
    if (v.is_bool()) {
      return v.as_bool();
    }
    Fail(what);
    return false;
  }
  const json::Array& Array(const json::Value& v, const char* what) {
    static const json::Array kEmpty;
    if (v.is_array()) {
      return v.as_array();
    }
    Fail(what);
    return kEmpty;
  }
  const Status& status() const { return status_; }

 private:
  void Fail(const char* what) {
    if (status_.ok()) {
      status_ = DataLossError(std::string("controller checkpoint: bad ") +
                              what);
    }
  }

  Status status_;
};

}  // namespace

json::Value Maintenance::StatusReport() const {
  json::Object report;

  json::Object arrays;
  arrays["empty"] = json::Value(
      olfs_->da_index().CountState(ArrayState::kEmpty));
  arrays["used"] = json::Value(
      olfs_->da_index().CountState(ArrayState::kUsed));
  arrays["failed"] = json::Value(
      olfs_->da_index().CountState(ArrayState::kFailed));
  report["disc_arrays"] = json::Value(std::move(arrays));

  json::Object pipeline;
  pipeline["buckets_created"] =
      json::Value(olfs_->buckets().buckets_created());
  pipeline["arrays_burned"] = json::Value(olfs_->burns().arrays_burned());
  pipeline["active_burns"] = json::Value(olfs_->burns().active_burns());
  pipeline["pending_images"] = json::Value(
      static_cast<std::int64_t>(olfs_->images().UnburnedClosed().size()));
  pipeline["fetches"] =
      json::Value(static_cast<std::int64_t>(olfs_->fetches().fetches()));
  report["pipeline"] = json::Value(std::move(pipeline));

  // Fetch scheduler observability: queue shape, batching effectiveness,
  // and the mechanical work the batching avoided.
  const FetchScheduler& scheduler = *olfs_->fetch_scheduler();
  const FetchSchedulerStats& stats = scheduler.stats();
  json::Object sched;
  sched["queue_depth"] = json::Value(scheduler.queue_depth());
  sched["max_queue_depth"] =
      json::Value(static_cast<std::int64_t>(stats.max_queue_depth));
  sched["requests"] = json::Value(static_cast<std::int64_t>(stats.requests));
  sched["loads"] = json::Value(static_cast<std::int64_t>(stats.loads));
  sched["unloads"] = json::Value(static_cast<std::int64_t>(stats.unloads));
  sched["parked_hits"] =
      json::Value(static_cast<std::int64_t>(stats.parked_hits));
  sched["handoffs"] = json::Value(static_cast<std::int64_t>(stats.handoffs));
  sched["loads_avoided"] =
      json::Value(static_cast<std::int64_t>(stats.loads_avoided()));
  sched["aged_dispatches"] =
      json::Value(static_cast<std::int64_t>(stats.aged_dispatches));
  sched["failed_batches"] =
      json::Value(static_cast<std::int64_t>(stats.failed_batches));
  sched["max_batch"] = json::Value(static_cast<std::int64_t>(stats.max_batch));
  sched["mean_queue_delay_s"] =
      json::Value(sim::ToSeconds(stats.mean_queue_delay()));
  sched["max_queue_delay_s"] =
      json::Value(sim::ToSeconds(stats.max_queue_delay));
  sched["est_positioning_s"] =
      json::Value(sim::ToSeconds(stats.est_positioning));
  // Speculative prefetch class: queued, dispatched, and how predictions
  // paid off. speculative_demand_evictions is a runtime
  // self-check and must stay 0.
  sched["speculative_enqueued"] =
      json::Value(static_cast<std::int64_t>(stats.speculative_enqueued));
  sched["speculative_loads"] =
      json::Value(static_cast<std::int64_t>(stats.speculative_loads));
  sched["speculative_canceled"] =
      json::Value(static_cast<std::int64_t>(stats.speculative_canceled));
  sched["speculative_useful"] =
      json::Value(static_cast<std::int64_t>(stats.speculative_useful));
  sched["speculative_wasted"] =
      json::Value(static_cast<std::int64_t>(stats.speculative_wasted));
  sched["speculative_demand_evictions"] = json::Value(
      static_cast<std::int64_t>(stats.speculative_demand_evictions));
  // Background claim class (scrub, audit, refresh sweeps): claims
  // admitted, and how many of them had to wait for demand to clear.
  sched["background_acquires"] =
      json::Value(static_cast<std::int64_t>(stats.background_acquires));
  sched["background_yields"] =
      json::Value(static_cast<std::int64_t>(stats.background_yields));
  json::Array hist;
  for (int i = 0; i < FetchSchedulerStats::kDelayBuckets; ++i) {
    json::Object bucket;
    bucket["upper_s"] = json::Value(FetchSchedulerStats::kDelayBucketUpperS[i]);
    bucket["count"] =
        json::Value(static_cast<std::int64_t>(stats.delay_hist[i]));
    hist.push_back(json::Value(std::move(bucket)));
  }
  sched["queue_delay_histogram"] = json::Value(std::move(hist));
  report["fetch_scheduler"] = json::Value(std::move(sched));

  json::Object cache;
  cache["image_cache_bytes"] =
      json::Value(static_cast<std::int64_t>(olfs_->cache().used_bytes()));
  cache["image_hits"] =
      json::Value(static_cast<std::int64_t>(olfs_->cache().hits()));
  cache["image_misses"] =
      json::Value(static_cast<std::int64_t>(olfs_->cache().misses()));
  cache["image_ghost_hits"] =
      json::Value(static_cast<std::int64_t>(olfs_->cache().ghost_hits()));
  cache["image_ghost_entries"] = json::Value(
      static_cast<std::int64_t>(olfs_->cache().ghost_entries()));
  cache["image_protected_bytes"] = json::Value(
      static_cast<std::int64_t>(olfs_->cache().protected_bytes()));
  cache["image_probationary_bytes"] = json::Value(
      static_cast<std::int64_t>(olfs_->cache().probationary_bytes()));
  cache["shared_image_reads"] = json::Value(
      static_cast<std::int64_t>(olfs_->shared_image_reads()));
  cache["readahead_images"] = json::Value(
      static_cast<std::int64_t>(olfs_->readahead_images()));
  cache["readahead_bytes"] = json::Value(
      static_cast<std::int64_t>(olfs_->readahead_bytes()));
  cache["file_cache_bytes"] = json::Value(
      static_cast<std::int64_t>(olfs_->file_cache().used_bytes()));
  const auto& index_stats = olfs_->mv().cache_stats();
  cache["index_hits"] =
      json::Value(static_cast<std::int64_t>(index_stats.hits));
  cache["index_misses"] =
      json::Value(static_cast<std::int64_t>(index_stats.misses));
  cache["index_evictions"] =
      json::Value(static_cast<std::int64_t>(index_stats.evictions));
  report["caches"] = json::Value(std::move(cache));

  // Namespace store internals.
  const auto store = olfs_->mv().store_stats();
  json::Object mv_store;
  mv_store["wal_records_appended"] =
      json::Value(static_cast<std::int64_t>(store.wal.records_appended));
  mv_store["wal_batches_committed"] =
      json::Value(static_cast<std::int64_t>(store.wal.batches_committed));
  mv_store["wal_bytes_committed"] =
      json::Value(static_cast<std::int64_t>(store.wal.bytes_committed));
  mv_store["wal_commit_failures"] =
      json::Value(static_cast<std::int64_t>(store.wal.commit_failures));
  mv_store["memtable_entries"] =
      json::Value(static_cast<std::int64_t>(store.memtable_entries));
  mv_store["memtable_bytes"] =
      json::Value(static_cast<std::int64_t>(store.memtable_bytes));
  mv_store["segment_count"] =
      json::Value(static_cast<std::int64_t>(store.segment_count));
  mv_store["segment_bytes"] =
      json::Value(static_cast<std::int64_t>(store.segment_bytes));
  mv_store["segment_records_live"] =
      json::Value(static_cast<std::int64_t>(store.segment_records_live));
  mv_store["segment_records_total"] =
      json::Value(static_cast<std::int64_t>(store.segment_records_total));
  mv_store["memtable_flushes"] =
      json::Value(static_cast<std::int64_t>(store.memtable_flushes));
  mv_store["compactions"] =
      json::Value(static_cast<std::int64_t>(store.compactions));
  mv_store["segments_deleted"] =
      json::Value(static_cast<std::int64_t>(store.segments_deleted));
  report["mv_store"] = json::Value(std::move(mv_store));

  // Self-healing: the fault/retry/repair pipeline (§4.7), plus raw
  // injector telemetry when a chaos plan is installed.
  json::Object resilience;
  resilience["degraded_reads"] =
      json::Value(static_cast<std::int64_t>(olfs_->degraded_reads()));
  resilience["reconstructions"] =
      json::Value(static_cast<std::int64_t>(olfs_->reconstructions()));
  resilience["images_repaired"] =
      json::Value(static_cast<std::int64_t>(olfs_->images_repaired()));
  resilience["burn_retries"] = json::Value(olfs_->burns().burn_retries());
  resilience["arrays_reallocated"] =
      json::Value(olfs_->burns().arrays_reallocated());
  resilience["fetch_retries"] =
      json::Value(static_cast<std::int64_t>(olfs_->fetches().retries()));
  resilience["mech_recoveries"] = json::Value(static_cast<std::int64_t>(
      olfs_->system().library()->fault_recoveries()));
  resilience["mech_reseat_failures"] = json::Value(
      static_cast<std::int64_t>(olfs_->system().library()->reseat_failures()));
  if (sim::FaultInjector* injector = olfs_->system().fault_injector()) {
    json::Object injected;
    for (int k = 0; k < sim::kNumFaultKinds; ++k) {
      const auto kind = static_cast<sim::FaultKind>(k);
      json::Object counts;
      counts["ops_seen"] = json::Value(
          static_cast<std::int64_t>(injector->ops_seen(kind)));
      counts["injected"] = json::Value(
          static_cast<std::int64_t>(injector->injected(kind)));
      injected[std::string(sim::FaultKindName(kind))] =
          json::Value(std::move(counts));
    }
    resilience["injected_faults"] = json::Value(std::move(injected));
  }
  report["resilience"] = json::Value(std::move(resilience));

  // Decades-scale preservation (DESIGN.md §5j): scrub / refresh-migration
  // progress and the audit manifests' verification economics.
  json::Object preservation;
  preservation["scrub_passes"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().passes()));
  preservation["scrubbed_bytes"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().scrubbed_bytes()));
  preservation["scrub_repairs"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().scrub_repairs()));
  preservation["refresh_burns"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().refresh_burns()));
  preservation["arrays_refreshed"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().arrays_refreshed()));
  preservation["audit_roots_built"] = json::Value(
      static_cast<std::int64_t>(olfs_->audit().roots_built()));
  preservation["audit_manifests"] = json::Value(
      static_cast<std::int64_t>(olfs_->audit().manifests_live()));
  preservation["audit_leaves_sampled"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().audit_leaves_sampled()));
  preservation["audit_bytes_read"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().audit_bytes_read()));
  preservation["audit_mismatches"] = json::Value(
      static_cast<std::int64_t>(olfs_->scrub().audit_mismatches()));
  report["preservation"] = json::Value(std::move(preservation));

  json::Object namespace_info;
  namespace_info["entries"] =
      json::Value(static_cast<std::int64_t>(olfs_->mv().index_count()));
  namespace_info["images"] =
      json::Value(static_cast<std::int64_t>(olfs_->images().image_count()));
  report["namespace"] = json::Value(std::move(namespace_info));

  json::Array tiers;
  for (const ImageRecord* record : olfs_->images().AllRecords()) {
    json::Object entry;
    entry["id"] = json::Value(record->id);
    entry["tier"] = json::Value(std::string(TierName(record->tier)));
    if (record->disc.has_value()) {
      entry["disc"] = json::Value(record->disc->ToString());
    }
    tiers.push_back(json::Value(std::move(entry)));
  }
  report["images"] = json::Value(std::move(tiers));
  return json::Value(std::move(report));
}

sim::Task<Status> Maintenance::Checkpoint() {
  json::Object state;

  // DAindex.
  json::Array used;
  json::Array failed;
  for (int t = 0;
       t < olfs_->da_index().rollers() * mech::kTraysPerRoller; ++t) {
    switch (olfs_->da_index().state(mech::TrayAddress::FromIndex(t))) {
      case ArrayState::kUsed: used.push_back(json::Value(t)); break;
      case ArrayState::kFailed: failed.push_back(json::Value(t)); break;
      case ArrayState::kEmpty: break;
    }
  }
  state["da_used"] = json::Value(std::move(used));
  state["da_failed"] = json::Value(std::move(failed));
  state["bucket_counter"] =
      json::Value(olfs_->buckets().buckets_created());

  // Image registry + buffered structures flushed to the disk buffer.
  json::Array images;
  for (const ImageRecord* record : olfs_->images().AllRecords()) {
    json::Object entry;
    entry["id"] = json::Value(record->id);
    entry["parity"] = json::Value(record->parity);
    entry["tier"] = json::Value(static_cast<int>(record->tier));
    entry["bytes"] = json::Value(record->logical_bytes);
    entry["vol"] = json::Value(record->volume_index);
    entry["file"] = json::Value(record->volume_file);
    if (record->disc.has_value()) {
      entry["disc"] = json::Value(record->disc->ToIndex());
    }
    json::Array members;
    for (const std::string& member : record->array_members) {
      members.push_back(json::Value(member));
    }
    entry["members"] = json::Value(std::move(members));
    images.push_back(json::Value(std::move(entry)));

    // Persist the serialized structure of every image whose bytes live
    // only in controller memory + buffer (open buckets included: the
    // checkpoint closes over their current content). Serialize copies a
    // closed image's stream as built; only open buckets are encoded here.
    if (record->image != nullptr && !record->parity) {
      disk::Volume* volume = olfs_->buckets().volume(record->volume_index);
      const std::string name = CheckpointFileName(record->id);
      if (!volume->Exists(name)) {
        ROS_CO_RETURN_IF_ERROR(co_await volume->Create(name));
      }
      ROS_CO_RETURN_IF_ERROR(co_await volume->WriteAll(
          name, udf::Serializer::Serialize(*record->image)));
    }
  }
  state["images"] = json::Value(std::move(images));
  co_return co_await olfs_->mv().PutState(kCheckpointKey,
                                          json::Value(std::move(state)));
}

sim::Task<Status> Maintenance::RestoreFromCheckpoint() {
  ROS_CO_ASSIGN_OR_RETURN(json::Value state,
                          co_await olfs_->mv().GetState(kCheckpointKey));
  CheckpointReader in;
  const std::int64_t trays =
      std::int64_t{olfs_->da_index().rollers()} * mech::kTraysPerRoller;
  std::vector<mech::TrayAddress> used;
  std::vector<mech::TrayAddress> failed;
  for (const json::Value& t : in.Array(state["da_used"], "da_used")) {
    used.push_back(mech::TrayAddress::FromIndex(
        static_cast<int>(in.Int(t, trays, "da_used tray"))));
  }
  for (const json::Value& t : in.Array(state["da_failed"], "da_failed")) {
    failed.push_back(mech::TrayAddress::FromIndex(
        static_cast<int>(in.Int(t, trays, "da_failed tray"))));
  }
  const auto counter = static_cast<int>(in.Int(
      state["bucket_counter"], std::numeric_limits<int>::max(),
      "bucket_counter"));
  std::vector<ImageRecord> decoded;
  for (const json::Value& entry : in.Array(state["images"], "images")) {
    ImageRecord record;
    record.id = in.String(entry["id"], "image id");
    record.parity = in.Bool(entry["parity"], "image parity");
    record.logical_bytes = static_cast<std::uint64_t>(in.Int(
        entry["bytes"], std::numeric_limits<std::int64_t>::max(),
        "image bytes"));
    record.volume_index = static_cast<int>(
        in.Int(entry["vol"], olfs_->buckets().num_volumes(), "image vol"));
    record.volume_file = in.String(entry["file"], "image file");
    if (entry.contains("disc")) {
      record.disc = mech::DiscAddress::FromIndex(static_cast<int>(
          in.Int(entry["disc"], trays * mech::kDiscsPerTray, "image disc")));
    }
    for (const json::Value& member :
         in.Array(entry["members"], "image members")) {
      record.array_members.push_back(in.String(member, "image member"));
    }
    const auto tier = static_cast<ImageTier>(
        in.Int(entry["tier"], static_cast<int>(ImageTier::kBurnedOnly) + 1,
               "image tier"));
    // Open buckets are closed by the crash; their checkpointed content
    // survives as a buffered image awaiting burn.
    record.tier = tier == ImageTier::kOpenBucket ? ImageTier::kBuffered
                                                 : tier;
    decoded.push_back(std::move(record));
  }
  ROS_CO_RETURN_IF_ERROR(in.status());

  // Reload every buffer-resident data image before touching controller
  // state, so a lost image leaves the controller as it was.
  std::vector<ImageRecord> records;
  for (ImageRecord& record : decoded) {
    if ((record.tier == ImageTier::kBuffered ||
         record.tier == ImageTier::kBurnedCached) &&
        !record.parity) {
      disk::Volume* volume = olfs_->buckets().volume(record.volume_index);
      const std::string name = CheckpointFileName(record.id);
      auto bytes = co_await volume->ReadAll(name);
      if (bytes.ok()) {
        auto image = udf::Serializer::Parse(std::move(*bytes));
        if (image.ok()) {
          record.image =
              std::make_shared<udf::Image>(std::move(*image));
          record.logical_bytes = record.image->used_bytes();
        }
      }
      if (record.image == nullptr) {
        if (!record.disc.has_value()) {
          co_return DataLossError("image " + record.id +
                                  " lost: no checkpoint copy and not on "
                                  "any disc");
        }
        record.tier = ImageTier::kBurnedOnly;  // still safe on its disc
      }
    }
    // Parity images in the buffer cannot be reloaded (their bytes are
    // derived); regenerate by re-burning if needed, or keep disc copies.
    if (record.parity && !record.disc.has_value()) {
      continue;  // will be regenerated with its array's next burn
    }
    records.push_back(std::move(record));
  }

  for (const mech::TrayAddress& tray : used) {
    olfs_->da_index().set_state(tray, ArrayState::kUsed);
  }
  for (const mech::TrayAddress& tray : failed) {
    olfs_->da_index().set_state(tray, ArrayState::kFailed);
  }
  olfs_->buckets().RestoreCounter(counter);
  for (ImageRecord& record : records) {
    ROS_CO_RETURN_IF_ERROR(
        olfs_->images().RestoreRecord(std::move(record)));
  }
  co_return OkStatus();
}

}  // namespace ros::olfs
