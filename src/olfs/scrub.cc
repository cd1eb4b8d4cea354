#include "src/olfs/scrub.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/olfs/olfs.h"

namespace ros::olfs {

sim::Task<StatusOr<std::uint64_t>> ScrubManager::ScrubOneImage(
    std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(
      FetchLease lease,
      co_await olfs_->fetches().FetchDisc(image_id, FetchClass::kBackground));
  // The full-stream optical read is also what advances the media aging
  // clock on the disc (OpticalDrive::ReadDiscard). It is charged the way
  // ReadAll charges it, without copying a stream nobody looks at.
  drive::OpticalDrive* drive = lease.drive();
  if (!drive->has_disc()) {
    co_return FailedPreconditionError("no disc in drive");
  }
  ROS_CO_ASSIGN_OR_RETURN(const drive::Session* session,
                          drive->disc()->FindSession(image_id));
  const std::uint64_t n = std::max<std::uint64_t>(1, session->data.size());
  ROS_CO_RETURN_IF_ERROR(co_await drive->ReadDiscard(image_id, 0, n));
  co_return n;
}

sim::Task<StatusOr<ScrubPassReport>> ScrubManager::RunPass() {
  ScrubPassReport report;
  // Snapshot the burned population grouped by tray; arrays burned while
  // the pass runs (including our own refresh burns) wait for the next one.
  std::map<int, std::vector<std::string>> by_tray;
  for (const std::string& id : olfs_->images().BurnedImages()) {
    auto record = olfs_->images().Lookup(id);
    if (!record.ok() || !(*record)->disc.has_value()) {
      continue;
    }
    const mech::TrayAddress tray = (*record)->disc->tray;
    // Retired arrays (WORM media already refreshed elsewhere) keep stale
    // records around; they are dead weight, not scrub targets.
    if (olfs_->da_index().state(tray) == ArrayState::kFailed) {
      continue;
    }
    by_tray[tray.ToIndex()].push_back(id);
  }
  const std::vector<std::pair<int, std::vector<std::string>>> arrays(
      by_tray.begin(), by_tray.end());

  bool staged = false;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const int tray_index = arrays[a].first;
    const std::vector<std::string> members = arrays[a].second;
    ++report.arrays;
    std::vector<std::string> damaged;
    double max_age_years = 0.0;
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::string id = members[k];
      auto record = olfs_->images().Lookup(id);
      if (record.ok() && (*record)->disc.has_value()) {
        max_age_years = std::max(
            max_age_years,
            olfs_->mech().DiscAt(*(*record)->disc)->AgeYears(sim_.now()));
      }
      auto scanned = co_await ScrubOneImage(id);
      ++report.images;
      if (scanned.ok()) {
        report.bytes += *scanned;
        scrubbed_bytes_ += *scanned;
      } else if (scanned.status().code() == StatusCode::kDataLoss) {
        damaged.push_back(id);
      } else {
        ROS_LOG(kWarning) << "scrub could not reach " << id << ": "
                          << scanned.status().ToString();
      }
    }

    const OlfsParams& params = olfs_->params();
    const bool refresh =
        (!damaged.empty() && params.scrub_refresh_enabled) ||
        (params.refresh_age_years > 0 &&
         max_age_years >= params.refresh_age_years);
    if (refresh && params.generation_migration_enabled && !migrated_) {
      migrated_ = true;
      olfs_->mech().set_media_type(params.migration_disc_type);
      ROS_LOG(kInfo) << "generation migration: refresh burns now land on "
                        "the next media generation";
    }
    // Repair first, while every sibling is still on its disc: parity can
    // rebuild a member only from the streams that sit beside it.
    Status repair_error;
    for (std::size_t k = 0; k < damaged.size(); ++k) {
      const std::string id = damaged[k];
      auto record = olfs_->images().Lookup(id);
      if (!record.ok() || (*record)->parity) {
        continue;  // parity is regenerated when the array next burns
      }
      Status status = co_await olfs_->RecoverAndRepairImage(id);
      if (!status.ok()) {
        // kDataLoss: more members lost than parity rows, which the
        // survival accounting surfaces. Anything else is mech trouble, and
        // the array keeps its tray until a later pass can repair it.
        ROS_LOG(kWarning) << "scrub repair of " << id
                          << " failed: " << status.ToString();
        if (status.code() != StatusCode::kDataLoss) {
          repair_error = status;
        }
        continue;
      }
      ++scrub_repairs_;
      ++report.repairs;
      staged = true;
      if (refresh) {
        ++refresh_burns_;
        ++report.refresh_burns;
      }
    }
    if (refresh && repair_error.ok()) {
      Status status =
          co_await RefreshArray(tray_index, members, damaged, &report);
      if (status.ok()) {
        staged = true;
      } else {
        ROS_LOG(kWarning) << "refresh of tray " << tray_index
                          << " failed: " << status.ToString();
      }
    }
  }

  if (staged) {
    // Push every re-staged image through the burn pipeline so the pass
    // ends with the rack fully burned (and fresh audit manifests built).
    ROS_CO_RETURN_IF_ERROR(co_await olfs_->FlushAndDrain());
  }
  ++passes_;
  co_return report;
}

sim::Task<Status> ScrubManager::RefreshArray(
    int tray_index, std::vector<std::string> member_ids,
    std::vector<std::string> damaged, ScrubPassReport* report) {
  for (std::size_t k = 0; k < member_ids.size(); ++k) {
    const std::string id = member_ids[k];
    auto record = olfs_->images().Lookup(id);
    if (!record.ok() || (*record)->parity ||
        std::find(damaged.begin(), damaged.end(), id) != damaged.end()) {
      continue;  // parity is regenerated; damaged members were repaired
    }
    Status status = co_await olfs_->RefreshImage(id);
    if (!status.ok()) {
      if (status.code() == StatusCode::kDataLoss) {
        // Unrecoverable member: acked loss the survival accounting will
        // surface. The rest of the array still migrates.
        ROS_LOG(kWarning) << "member " << id << " of tray " << tray_index
                          << " is unrecoverable: " << status.ToString();
        continue;
      }
      co_return status;
    }
    ++refresh_burns_;
    ++report->refresh_burns;
  }
  const mech::TrayAddress tray = mech::TrayAddress::FromIndex(tray_index);
  Status retired = co_await olfs_->audit().RetireTray(tray);
  if (!retired.ok()) {
    ROS_LOG(kWarning) << "retiring audit manifest of tray " << tray_index
                      << " failed: " << retired.ToString();
  }
  // WORM media cannot be reused; mark the old array failed so the
  // allocator never hands it out again.
  olfs_->da_index().set_state(tray, ArrayState::kFailed);
  ++arrays_refreshed_;
  ++report->arrays_refreshed;
  co_return OkStatus();
}

sim::Task<StatusOr<AuditReport>> ScrubManager::RunAudit(
    double sample_fraction, std::uint64_t seed) {
  AuditReport report;
  ROS_CO_ASSIGN_OR_RETURN(std::vector<AuditManifest> manifests,
                          co_await olfs_->audit().LoadManifests());
  for (std::size_t m = 0; m < manifests.size(); ++m) {
    ++report.manifests;
    const std::uint64_t leaf_bytes = manifests[m].leaf_bytes;
    if (leaf_bytes == 0) {
      continue;
    }
    for (std::size_t j = 0; j < manifests[m].members.size(); ++j) {
      const AuditMember member = manifests[m].members[j];
      report.stored_bytes += member.stream_bytes;
      if (member.leaves.empty()) {
        continue;
      }
      auto lookup = olfs_->images().Lookup(member.image_id);
      if (!lookup.ok() || !(*lookup)->disc.has_value()) {
        continue;  // re-staged mid-refresh; its new burn gets a new tree
      }
      ++report.members;
      // Deterministic per-member sample of >=1 leaf.
      const std::uint64_t n = member.leaves.size();
      std::uint64_t want = static_cast<std::uint64_t>(
          sample_fraction * static_cast<double>(n));
      want = std::min(n, std::max<std::uint64_t>(1, want));
      Rng rng(seed ^
              Fnv1a64({reinterpret_cast<const std::uint8_t*>(
                           member.image_id.data()),
                       member.image_id.size()}));
      std::set<std::uint64_t> chosen;
      for (std::uint64_t i = 0; i < want; ++i) {
        chosen.insert(rng.Below(n));
      }
      const std::vector<std::uint64_t> leaves(chosen.begin(), chosen.end());

      auto lease = co_await olfs_->fetches().FetchDisc(
          member.image_id, FetchClass::kBackground);
      if (!lease.ok()) {
        ROS_LOG(kWarning) << "audit could not fetch " << member.image_id
                          << ": " << lease.status().ToString();
        continue;
      }
      std::uint64_t member_bad = 0;
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        const std::uint64_t leaf = leaves[i];
        const std::uint64_t offset = leaf * leaf_bytes;
        if (offset >= member.stream_bytes) {
          continue;
        }
        const std::uint64_t len =
            std::min(leaf_bytes, member.stream_bytes - offset);
        ++audit_leaves_sampled_;
        ++report.leaves_sampled;
        audit_bytes_read_ += len;
        report.bytes_read += len;
        auto bytes = co_await lease->drive()->Read(
            member.image_id, offset, std::max<std::uint64_t>(1, len));
        if (!bytes.ok()) {
          if (bytes.status().code() == StatusCode::kDataLoss) {
            ++member_bad;  // rotten leaf: provable damage
          } else {
            ROS_LOG(kWarning) << "audit read of " << member.image_id
                              << " failed: " << bytes.status().ToString();
          }
          continue;
        }
        if (bytes->size() != len ||
            AuditHashLeaf(std::span<const std::uint8_t>(bytes->data(),
                                                        bytes->size()),
                          manifests[m].version) != member.leaves[leaf]) {
          ++member_bad;  // silent corruption: hash chain breaks
        }
      }
      if (member_bad > 0) {
        audit_mismatches_ += member_bad;
        report.mismatches += member_bad;
        report.damaged.push_back(member.image_id);
      }
    }
  }
  co_return report;
}

}  // namespace ros::olfs
