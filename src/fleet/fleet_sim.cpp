#include "fleet/fleet_sim.hpp"

#include <algorithm>
#include <cmath>

#include "fleet/event_engine.hpp"
#include "persist/crc32.hpp"
#include "tensor/parallel.hpp"
#include "tensor/splitmix64.hpp"

namespace edgetrain::fleet {

namespace {

std::uint64_t to_us(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

double to_seconds(std::uint64_t us) {
  return static_cast<double>(us) * 1e-6;
}

/// One contiguous id range [begin, end) with its own engine: the unit of
/// driver-thread parallelism. Nothing in here is shared across partitions
/// except the sink.
struct Partition {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  EventEngine engine;
  std::vector<FleetNode> nodes;
  std::vector<std::uint64_t> last_us;       ///< time each node advanced to
  std::vector<std::uint64_t> expected_sync_us;  ///< stale-sync filter
};

}  // namespace

calib::DeviceModel default_device_model() {
  // XU4-class numbers (paper Table: big.LITTLE A15/A7 board with an SD
  // card): sub-linear thread scaling, tens-of-MB/s SD, milliseconds of
  // per-op latency.
  calib::DeviceModel model;
  model.points = {{1, 2.1, 1.6}, {2, 3.9, 3.0}, {4, 6.8, 5.2}, {8, 8.9, 6.7}};
  model.memcpy_bytes_per_sec = 3.2e9;
  model.disk_write_bytes_per_sec = 22.0e6;
  model.disk_read_bytes_per_sec = 38.0e6;
  model.disk_write_latency_us = 4000.0;
  model.disk_read_latency_us = 1500.0;
  return model;
}

std::vector<std::unique_ptr<edge::PeriodicIdleProfile>> build_duty_profiles(
    const FleetConfig& config, double step_seconds) {
  const std::uint32_t count = std::max<std::uint32_t>(config.duty_archetypes, 1);
  const double period = std::max(config.duty_period_seconds, 60.0);
  std::vector<std::unique_ptr<edge::PeriodicIdleProfile>> profiles;
  profiles.reserve(count);
  for (std::uint32_t a = 0; a < count; ++a) {
    // Foreground load rises with the archetype index: sensing every minute
    // (10%..60% of the CPU) plus a periodic uplink burst, so the fleet
    // spans nearly-idle roof nodes to heavily duty-cycled intersections.
    const double load = count > 1
                            ? static_cast<double>(a) /
                                  static_cast<double>(count - 1)
                            : 0.0;
    edge::IdleScheduler scheduler(step_seconds);
    for (edge::ForegroundTask& task : edge::periodic_tasks(
             "sensing", 60.0, 6.0 + 30.0 * load, /*priority=*/1, period)) {
      scheduler.add_task(std::move(task));
    }
    for (edge::ForegroundTask& task : edge::periodic_tasks(
             "uplink", 293.0, 7.0, /*priority=*/2, period)) {
      scheduler.add_task(std::move(task));
    }
    profiles.push_back(
        std::make_unique<edge::PeriodicIdleProfile>(scheduler, period));
  }
  return profiles;
}

FleetReport run_fleet(const FleetConfig& config, DeltaSink* sink,
                      unsigned driver_threads) {
  const calib::DeviceModel device =
      config.device.points.empty() ? default_device_model() : config.device;
  // Price one training step on the (calibrated) device; floor at 1 ms so a
  // degenerate model cannot produce billions of steps per window.
  const double step_seconds = std::max(
      device.conv_us(config.step_flops, config.step_threads) * 1e-6, 1e-3);

  const auto profiles = build_duty_profiles(config, step_seconds);
  const std::uint64_t horizon_us = to_us(config.horizon_seconds);
  const std::uint64_t sync_us =
      std::max<std::uint64_t>(to_us(config.sync_interval_seconds), 1);

  NodeParams base;
  base.step_seconds = step_seconds;
  base.mtbf_seconds = config.mtbf_seconds;
  base.repair_seconds = config.repair_seconds;
  base.torn_snapshot_probability = config.torn_snapshot_probability;
  base.snapshot_every_steps = config.snapshot_every_steps;
  base.sd_endurance_writes = config.sd_endurance_writes;
  base.convergence = config.convergence;

  const std::uint32_t num_nodes = std::max<std::uint32_t>(config.num_nodes, 1);
  const auto partitions_wanted = static_cast<std::uint32_t>(
      std::clamp<unsigned>(driver_threads, 1, 256));
  const std::uint32_t num_partitions = std::min(partitions_wanted, num_nodes);

  std::vector<Partition> partitions(num_partitions);
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    Partition& part = partitions[p];
    part.begin = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(num_nodes) * p) / num_partitions);
    part.end = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(num_nodes) * (p + 1)) / num_partitions);
    const std::size_t count = part.end - part.begin;
    part.nodes.reserve(count);
    part.last_us.assign(count, 0);
    part.expected_sync_us.assign(count, 0);

    for (std::uint32_t id = part.begin; id < part.end; ++id) {
      // Everything node-specific -- RNG stream, duty phase, first-sync
      // stagger -- derives from (fleet seed, id) alone, never from the
      // partition layout, so trajectories survive re-partitioning.
      std::uint64_t mix =
          config.seed ^ (static_cast<std::uint64_t>(id) + 1) * 0x100000001B3ULL;
      const std::uint64_t node_seed = splitmix64_next(mix);

      NodeParams params = base;
      const auto& profile = *profiles[id % profiles.size()];
      params.profile = &profile;
      params.phase_seconds =
          splitmix64_uniform01(mix) * profile.period_seconds();
      part.nodes.emplace_back(id, params, node_seed);
      FleetNode& node = part.nodes.back();

      const std::size_t local = id - part.begin;
      const std::uint64_t first_sync =
          std::max<std::uint64_t>(to_us(splitmix64_uniform01(mix) *
                                        config.sync_interval_seconds),
                                  1);
      part.expected_sync_us[local] = first_sync;
      part.engine.schedule(first_sync, id, EventKind::Sync);
      part.engine.schedule(to_us(node.draw_time_to_failure()), id,
                           EventKind::Crash);
    }
  }

  const auto run_partition = [&](Partition& part) {
    const auto handler = [&](const Event& event) {
      const std::size_t local = event.node - part.begin;
      FleetNode& node = part.nodes[local];
      const std::uint64_t now = event.time_us;
      switch (event.kind) {
        case EventKind::Sync: {
          // Stale syncs: scheduled before a crash (wrong timestamp) or
          // arriving while the node is still dark.
          if (node.down() || part.expected_sync_us[local] != now) break;
          node.advance(to_seconds(part.last_us[local]), to_seconds(now));
          part.last_us[local] = now;
          const StudentDelta delta = node.sync(to_seconds(now));
          if (sink != nullptr) sink->accept(delta);
          part.expected_sync_us[local] = now + sync_us;
          part.engine.schedule(now + sync_us, event.node, EventKind::Sync);
          break;
        }
        case EventKind::Crash: {
          if (node.down()) break;  // defensive: one outstanding per up-period
          node.advance(to_seconds(part.last_us[local]), to_seconds(now));
          part.last_us[local] = now;
          node.crash(to_seconds(now));
          part.engine.schedule(now + to_us(config.repair_seconds), event.node,
                               EventKind::Recover);
          break;
        }
        case EventKind::Recover: {
          node.recover(to_seconds(now));
          part.last_us[local] = now;
          part.expected_sync_us[local] = now + sync_us;
          part.engine.schedule(now + sync_us, event.node, EventKind::Sync);
          part.engine.schedule(now + to_us(node.draw_time_to_failure()),
                               event.node, EventKind::Crash);
          break;
        }
      }
    };
    part.engine.run(horizon_us, handler);
    // Tail: surviving nodes train through the last partial sync interval.
    for (std::size_t local = 0; local < part.nodes.size(); ++local) {
      FleetNode& node = part.nodes[local];
      if (!node.down()) {
        node.advance(to_seconds(part.last_us[local]),
                     to_seconds(horizon_us));
        part.last_us[local] = horizon_us;
      }
    }
  };

  if (num_partitions == 1) {
    run_partition(partitions[0]);
  } else {
    edgetrain::parallel_for(
        0, static_cast<std::int64_t>(num_partitions), 1,
        [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
          for (std::int64_t p = chunk_begin; p < chunk_end; ++p) {
            run_partition(partitions[static_cast<std::size_t>(p)]);
          }
        });
  }

  FleetReport report;
  report.num_nodes = num_nodes;
  report.horizon_seconds = config.horizon_seconds;
  report.step_seconds = step_seconds;
  std::uint32_t state = 0xFFFFFFFFU;
  double accuracy_sum = 0.0;
  std::uint64_t converged = 0;
  for (const Partition& part : partitions) {
    report.events_dispatched += part.engine.events_dispatched();
    report.trace_crc ^= part.engine.trace_crc();
    for (const FleetNode& node : part.nodes) {
      report.deltas_emitted += node.deltas_emitted();
      report.steps_done += node.steps_done();
      report.steps_wasted += node.steps_wasted();
      report.crashes += node.crashes();
      report.recoveries += node.recoveries();
      report.torn_snapshots += node.torn_snapshots();
      report.sd_writes += node.sd_writes();
      if (node.worn_out()) ++report.worn_out_nodes;
      if (node.down()) ++report.down_nodes;
      accuracy_sum += node.accuracy();
      if (node.converged()) ++converged;
      state = node.fold_state(state);
    }
  }
  report.state_crc = persist::crc32_final(state);
  report.mean_accuracy = accuracy_sum / static_cast<double>(num_nodes);
  report.converged_fraction =
      static_cast<double>(converged) / static_cast<double>(num_nodes);
  return report;
}

}  // namespace edgetrain::fleet
