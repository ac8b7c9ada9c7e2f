#include "sim/fault_model.hpp"

#include <cstdio>

#include "common/log.hpp"

namespace entk::sim {

Status FaultSpec::validate() const {
  if (node_mtbf < 0.0) {
    return make_error(Errc::kInvalidArgument, "node_mtbf must be >= 0");
  }
  if (max_node_failures < 0) {
    return make_error(Errc::kInvalidArgument,
                      "max_node_failures must be >= 0");
  }
  if (launch_failure_rate < 0.0 || launch_failure_rate > 1.0) {
    return make_error(Errc::kInvalidArgument,
                      "launch_failure_rate must be in [0, 1]");
  }
  if (hang_rate < 0.0 || hang_rate > 1.0) {
    return make_error(Errc::kInvalidArgument,
                      "hang_rate must be in [0, 1]");
  }
  return Status::ok();
}

FaultModel::FaultModel(Engine& engine, FaultSpec spec)
    : engine_(engine),
      spec_(spec),
      fork_rng_(spec.seed),
      launch_rng_(fork_rng_.split()),
      hang_rng_(fork_rng_.split()) {
  ENTK_CHECK(spec_.validate().is_ok(), "invalid fault spec");
}

void FaultModel::record(const std::string& what) {
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "t=%.6f ", engine_.now());
  trace_.push_back(stamp + what);
  ENTK_INFO("sim.faults") << trace_.back();
}

std::size_t FaultModel::watch_nodes(Count nodes,
                                    std::function<void()> on_node_failure) {
  if (spec_.node_mtbf <= 0.0 || nodes < 1) return kNoConsumer;
  auto consumer = std::make_unique<Consumer>();
  consumer->nodes_left = nodes;
  consumer->rng = fork_rng_.split();
  consumer->handler = std::move(on_node_failure);
  consumers_.push_back(std::move(consumer));
  arm(consumers_.size() - 1);
  return consumers_.size() - 1;
}

void FaultModel::unwatch(std::size_t consumer) {
  ENTK_CHECK(consumer < consumers_.size(), "unwatch of an unknown consumer");
  consumers_[consumer]->handler = nullptr;
}

void FaultModel::arm(std::size_t consumer_index) {
  Consumer& consumer = *consumers_[consumer_index];
  if (consumer.nodes_left < 1) return;
  if (spec_.max_node_failures > 0 &&
      node_failures_ >= spec_.max_node_failures) {
    return;
  }
  // With n healthy nodes each failing at rate 1/MTBF, the time to the
  // next failure among them is exponential with mean MTBF / n.
  const Duration until_failure = consumer.rng.exponential(
      spec_.node_mtbf / static_cast<double>(consumer.nodes_left));
  consumer.armed = engine_.schedule(
      until_failure,
      [this, consumer_index] { fire_node_failure(consumer_index); });
}

void FaultModel::fire_node_failure(std::size_t consumer_index) {
  Consumer& hit = *consumers_[consumer_index];
  if (hit.nodes_left < 1) return;
  if (spec_.max_node_failures > 0 &&
      node_failures_ >= spec_.max_node_failures) {
    return;
  }
  --hit.nodes_left;
  ++node_failures_;
  record("node_failure consumer=" + std::to_string(consumer_index) +
         " nodes_left=" + std::to_string(hit.nodes_left));
  if (hit.handler) hit.handler();
  arm(consumer_index);
}

FaultModel::SavedState FaultModel::save_state() const {
  SavedState saved;
  saved.fork_rng = fork_rng_.save_state();
  saved.launch_rng = launch_rng_.save_state();
  saved.hang_rng = hang_rng_.save_state();
  saved.node_failures = node_failures_;
  saved.launch_failures = launch_failures_;
  saved.hangs = hangs_;
  saved.trace = trace_;
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    const Consumer& consumer = *consumers_[i];
    saved.consumers.push_back(
        {consumer.nodes_left, consumer.rng.save_state()});
    if (engine_.pending(consumer.armed)) {
      saved.armed.push_back({i, engine_.event_time(consumer.armed),
                             engine_.event_seq(consumer.armed)});
    }
  }
  return saved;
}

void FaultModel::restore_state(const SavedState& saved) {
  ENTK_CHECK(consumers_.size() == saved.consumers.size(),
             "checkpoint consumer count does not match this fault model");
  fork_rng_.restore_state(saved.fork_rng);
  launch_rng_.restore_state(saved.launch_rng);
  hang_rng_.restore_state(saved.hang_rng);
  node_failures_ = saved.node_failures;
  launch_failures_ = saved.launch_failures;
  hangs_ = saved.hangs;
  trace_ = saved.trace;
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    Consumer& consumer = *consumers_[i];
    // The registration replay armed a fresh event; the captured run's
    // pending arms are reposted by the coordinator instead.
    if (consumer.armed != kInvalidEvent) engine_.cancel(consumer.armed);
    consumer.armed = kInvalidEvent;
    consumer.nodes_left = saved.consumers[i].nodes_left;
    consumer.rng.restore_state(saved.consumers[i].rng);
  }
}

void FaultModel::repost_failure(std::size_t consumer_index, TimePoint at) {
  ENTK_CHECK(consumer_index < consumers_.size(),
             "checkpoint names an unknown fault consumer");
  consumers_[consumer_index]->armed = engine_.schedule_at(
      at, [this, consumer_index] { fire_node_failure(consumer_index); });
}

bool FaultModel::draw_launch_failure() {
  if (spec_.launch_failure_rate <= 0.0) return false;
  if (launch_rng_.uniform() >= spec_.launch_failure_rate) return false;
  ++launch_failures_;
  record("launch_failure");
  return true;
}

bool FaultModel::draw_hang() {
  if (spec_.hang_rate <= 0.0) return false;
  if (hang_rng_.uniform() >= spec_.hang_rate) return false;
  ++hangs_;
  record("hang");
  return true;
}

}  // namespace entk::sim
