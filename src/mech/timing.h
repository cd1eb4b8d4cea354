// Timing model for the ROS mechanical subsystem, calibrated to the paper's
// measurements (§3.2, §5.5, Table 3):
//
//   - roller rotation: < 2 s (scales with angular distance)
//   - robotic arm vertical travel, top <-> bottom: <= 5 s
//   - separating 12 discs into 12 drives: ~61 s
//   - collecting 12 discs from drives: ~74 s
//   - load disc array:   68.7 s (uppermost layer) / 73.2 s (lowest layer)
//   - unload disc array: 81.7 s (uppermost layer) / 86.5 s (lowest layer)
//
// Load sequence and budget (uppermost layer):
//   rotate(1 slot) 0.8 + arm descend 0.0 + tray fan-out 2.4 + grab 1.5
//   + tray fan-in 1.5 + drive trays open 1.5 + separate 61.0  = 68.7 s
// Unload sequence and budget (uppermost layer; the roller still faces the
// home slot after the preceding load, so no rotation is needed):
//   drive trays eject 1.5 + collect 74.0 + descend 0.0
//   + fan-out 2.4 + place 2.3 + fan-in 1.5                    = 81.7 s
// Placing is slower than grabbing (2.3 s vs 1.5 s): the array must seat
// into the tray spindle against the 0.05 mm positioning tolerance.
//
// The arm's *return* ascent (carrying the array up to the drives after a
// grab, or returning empty to its park position after a place) runs at high
// speed on a straight vertical run (<= 2.8 s full travel) and overlaps the
// tray fan-in plus drive-tray actuation (3.0 s), so it is never on the
// critical path. Descents are slower: they position against the 0.05 mm
// range sensors (empty 4.5 s, carrying 4.8 s full travel). This reproduces
// the paper's "the lowest layer takes about 5 more seconds".
#ifndef ROS_SRC_MECH_TIMING_H_
#define ROS_SRC_MECH_TIMING_H_

#include "src/mech/geometry.h"
#include "src/sim/time.h"

namespace ros::mech {

struct MechTimingModel {
  // Roller rotation: base actuation cost plus per-slot angular travel.
  // Worst case (3 slots = half turn) is exactly the paper's 2 s bound.
  sim::Duration rotate_base = sim::Millis(200);
  sim::Duration rotate_per_slot = sim::Millis(600);

  // Robotic arm vertical travel across all 84 inter-layer gaps.
  sim::Duration arm_full_travel_empty = sim::Millis(4500);
  sim::Duration arm_full_travel_carrying = sim::Millis(4800);
  // Fast straight-line return ascent (overlapped; see header note).
  sim::Duration arm_full_travel_return = sim::Millis(2800);

  // Tray fan-out (hook lock + roller partial rotation) and fan-in.
  sim::Duration tray_fan_out = sim::Millis(2400);
  sim::Duration tray_fan_in = sim::Millis(1500);

  // Grabbing a disc array off a fanned-out tray / placing one back.
  sim::Duration grab_array = sim::Millis(1500);
  sim::Duration place_array = sim::Millis(2300);

  // Opening (for loading) or ejecting (for unloading) all 12 drive trays,
  // performed simultaneously across the set.
  sim::Duration drive_trays_open = sim::Millis(1500);
  sim::Duration drive_trays_eject = sim::Millis(1500);

  // Separating the bottom disc of the carried array into a drive, one by
  // one (12 discs ~= 61 s), and collecting one disc from a drive
  // (12 discs ~= 74 s).
  sim::Duration separate_per_disc = sim::Micros(61.0 / 12.0 * 1e6);
  sim::Duration collect_per_disc = sim::Micros(74.0 / 12.0 * 1e6);

  // Sensor-feedback recalibration retry penalty (0.05 mm positioning).
  sim::Duration recalibration_delay = sim::Millis(200);

  sim::Duration RotateTime(int from_slot, int to_slot) const {
    int d = SlotDistance(from_slot, to_slot);
    if (d == 0) {
      return 0;
    }
    return rotate_base + d * rotate_per_slot;
  }

  sim::Duration ArmTravelTime(int from_layer, int to_layer,
                              bool carrying) const {
    int d = from_layer - to_layer;
    if (d < 0) {
      d = -d;
    }
    if (d == 0) {
      return 0;
    }
    const sim::Duration full =
        carrying ? arm_full_travel_carrying : arm_full_travel_empty;
    return full * d / (kLayersPerRoller - 1);
  }

  sim::Duration SeparateArrayTime() const {
    return separate_per_disc * kDiscsPerTray;
  }
  sim::Duration CollectArrayTime() const {
    return collect_per_disc * kDiscsPerTray;
  }
  // One array load from the uppermost layer (the 68.7 s budget above).
  sim::Duration LoadArrayTime() const {
    return RotateTime(0, 1) + tray_fan_out + grab_array + tray_fan_in +
           drive_trays_open + SeparateArrayTime();
  }
};

}  // namespace ros::mech

#endif  // ROS_SRC_MECH_TIMING_H_
