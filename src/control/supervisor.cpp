#include "control/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "telemetry/exporter.hpp"
#include "util/log.hpp"
#include "util/thread_name.hpp"

extern char** environ;

namespace stampede::control {

namespace {

/// The stdout line every worker prints once its telemetry endpoint is
/// bound (examples/spd_node.cpp keeps this format stable).
constexpr const char* kMetricsAnnouncement = "spd_node: metrics on ";

/// Injects `node="<name>"` as the first label of every series line of a
/// Prometheus text body. Comment lines (HELP/TYPE) are dropped: the
/// merged fleet exposition would otherwise repeat each family's header
/// once per worker, which scrapers reject.
std::string inject_node_label(const std::string& body, const std::string& node) {
  const std::string label = "node=\"" + telemetry::json_escape(node) + "\"";
  std::string out;
  out.reserve(body.size() + 32 * (label.size() + 2));
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    if (end > pos && body[pos] != '#') {
      std::size_t brace = body.find('{', pos);
      std::size_t space = body.find(' ', pos);
      if (brace != std::string::npos && brace < end &&
          (space == std::string::npos || brace < space)) {
        out.append(body, pos, brace + 1 - pos);
        out += label;
        out += ',';
        out.append(body, brace + 1, end - brace - 1);
        out += '\n';
      } else if (space != std::string::npos && space < end) {
        out.append(body, pos, space - pos);
        out += '{';
        out += label;
        out += '}';
        out.append(body, space, end - space);
        out += '\n';
      }
      // Lines with neither a label set nor a value separator are not
      // exposition series; drop them rather than corrupt the merge.
    }
    pos = end + 1;
  }
  return out;
}

const char* state_json(WorkerState s) { return to_string(s); }

}  // namespace

const char* to_string(WorkerState s) {
  switch (s) {
    case WorkerState::kStarting: return "starting";
    case WorkerState::kUp: return "up";
    case WorkerState::kDegraded: return "degraded";
    case WorkerState::kBackoff: return "backoff";
    case WorkerState::kStopped: return "stopped";
  }
  return "?";
}

Supervisor::Supervisor(Manifest manifest, SupervisorConfig config)
    : manifest_(std::move(manifest)),
      config_(std::move(config)),
      clock_(config_.clock ? config_.clock : &RealClock::instance()) {
  if (config_.worker_path.empty()) {
    throw std::invalid_argument("supervisor: worker_path is required");
  }
  // Series registration happens before the fleet lock ever exists to a
  // second thread — and must not happen under it: the registry mutex
  // ranks kTelemetry (24), below kControl.
  std::vector<Worker> workers;
  workers.reserve(manifest_.nodes.size());
  for (const ManifestNode& n : manifest_.nodes) {
    Worker w;
    w.node = n.name;
    if (config_.registry != nullptr) {
      w.up_gauge = &config_.registry->gauge(
          "aru_ctl_worker_up", "1 while the worker probes healthy, else 0",
          {{"node", n.name}});
      w.restart_counter = &config_.registry->counter(
          "aru_ctl_restarts_total", "Worker respawns after unexpected death",
          {{"node", n.name}});
      w.probe_gauge = &config_.registry->gauge(
          "aru_ctl_probe_latency_ns", "Latency of the last successful health probe",
          {{"node", n.name}});
    }
    workers.push_back(std::move(w));
  }
  {
    util::MutexLock lock(mu_);
    workers_ = std::move(workers);
  }
  if (config_.registry != nullptr) {
    exposition_handle_ =
        config_.registry->add_exposition([this] { return aggregated_metrics(); });
    status_handle_ =
        config_.registry->add_status("fleet", [this] { return fleet_status_json(); });
  }
}

Supervisor::~Supervisor() {
  if (config_.registry != nullptr) {
    config_.registry->remove_exposition(exposition_handle_);
    config_.registry->remove_status(status_handle_);
  }
  stop();
}

void Supervisor::start() {
  util::MutexLock lock(mu_);
  if (started_) return;
  started_ = true;
  for (Worker& w : workers_) {
    spawn_locked(w);
    if (w.pid <= 0) {
      throw std::runtime_error("supervisor: failed to spawn worker '" + w.node + "'");
    }
  }
  thread_ = std::jthread([this](std::stop_token st) {
    util::set_thread_name("supervisor");
    supervise(st);
  });
}

void Supervisor::stop() {
  std::jthread thread;
  {
    util::MutexLock lock(mu_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    stopped_ = true;
    thread = std::move(thread_);
  }
  thread.request_stop();
  if (thread.joinable()) thread.join();

  // Sole supervision actor from here on (status readers still take mu_).
  {
    util::MutexLock lock(mu_);
    for (Worker& w : workers_) {
      if (w.pid > 0) ::kill(w.pid, SIGTERM);
    }
  }
  const Nanos deadline = clock_->now() + config_.stop_grace;
  for (;;) {
    bool all_dead = true;
    {
      util::MutexLock lock(mu_);
      for (Worker& w : workers_) {
        if (w.out_fd >= 0) drain_output_locked(w);
        if (w.pid > 0) reap_locked(w);
        all_dead = all_dead && w.pid <= 0;
      }
    }
    if (all_dead || clock_->now() >= deadline) break;
    clock_->sleep_for(millis(20));
  }
  util::MutexLock lock(mu_);
  for (Worker& w : workers_) {
    if (w.pid > 0) {
      STAMPEDE_LOG(kWarn) << "supervisor: worker '" << w.node
                          << "' ignored SIGTERM, killing";
      ::kill(w.pid, SIGKILL);
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      w.last_exit = WIFEXITED(status) ? WEXITSTATUS(status)
                    : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                          : -1;
      w.pid = -1;
    }
    if (w.out_fd >= 0) drain_output_locked(w);
    if (w.out_fd >= 0) {
      ::close(w.out_fd);
      w.out_fd = -1;
    }
    w.state = WorkerState::kStopped;
    w.metrics_port = 0;
    if (w.up_gauge != nullptr) w.up_gauge->set(0);
  }
}

// ---------------------------------------------------------------------------
// Supervision loop
// ---------------------------------------------------------------------------

void Supervisor::supervise(const std::stop_token& st) {
  while (!st.stop_requested()) {
    tick();
    clock_->sleep_for(config_.probe_interval);
  }
}

void Supervisor::tick() {
  std::vector<ProbeTarget> targets;
  {
    util::MutexLock lock(mu_);
    const std::int64_t now_ns = clock_->now().count();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      if (w.state == WorkerState::kStopped) continue;
      if (w.out_fd >= 0) drain_output_locked(w);
      if (w.pid > 0) reap_locked(w);
      if (w.state == WorkerState::kBackoff && now_ns >= w.next_spawn_ns) {
        spawn_locked(w);
      }
      if (w.pid > 0 && w.metrics_port != 0) {
        add_probe_target(targets, i, w.metrics_port);
      }
    }
  }
  probe_fleet(targets);
}

void Supervisor::add_probe_target(std::vector<ProbeTarget>& targets, std::size_t index,
                                  std::uint16_t port) {
  targets.push_back({.index = index, .port = port});
}

void Supervisor::drain_output_locked(Worker& w) {
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(w.out_fd, buf, sizeof(buf));
    if (n > 0) {
      w.partial_line.append(buf, static_cast<std::size_t>(n));
      std::size_t nl = 0;
      while ((nl = w.partial_line.find('\n')) != std::string::npos) {
        handle_line_locked(w, w.partial_line.substr(0, nl));
        w.partial_line.erase(0, nl + 1);
      }
      continue;
    }
    if (n == 0) {  // EOF: the worker (and every dup of the write end) is gone
      ::close(w.out_fd);
      w.out_fd = -1;
    }
    return;  // EOF, EAGAIN, or error: nothing more to drain now
  }
}

void Supervisor::handle_line_locked(Worker& w, const std::string& line) {
  if (line.rfind(kMetricsAnnouncement, 0) == 0) {
    const long port = std::strtol(line.c_str() + std::string(kMetricsAnnouncement).size(),
                                  nullptr, 10);
    if (port > 0 && port <= 65535) w.metrics_port = static_cast<std::uint16_t>(port);
  }
  if (config_.forward_output) {
    std::printf("[%s] %s\n", w.node.c_str(), line.c_str());
    std::fflush(stdout);
  }
}

void Supervisor::spawn_locked(Worker& w) {
  const bool respawn = w.last_exit != -1 || w.restarts > 0;
  if (w.out_fd >= 0) {
    ::close(w.out_fd);
    w.out_fd = -1;
  }
  w.partial_line.clear();
  w.metrics.clear();
  w.metrics_port = 0;
  w.good_probes = 0;

  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    schedule_respawn_locked(w);
    return;
  }
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);

  std::vector<std::string> args = {config_.worker_path,
                                   "manifest=" + config_.manifest_path,
                                   "node=" + w.node,
                                   "seconds=0",
                                   "metrics_port=0"};
  for (const std::string& extra : config_.extra_args) args.push_back(extra);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  ::posix_spawn_file_actions_init(&fa);
  ::posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  ::posix_spawn_file_actions_adddup2(&fa, fds[1], STDERR_FILENO);
  ::posix_spawn_file_actions_addclose(&fa, fds[0]);
  ::posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, config_.worker_path.c_str(), &fa, nullptr,
                               argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);

  if (rc != 0) {
    ::close(fds[0]);
    STAMPEDE_LOG(kError) << "supervisor: posix_spawn('" << config_.worker_path
                         << "') for node '" << w.node << "' failed: " << rc;
    schedule_respawn_locked(w);
    return;
  }
  w.pid = pid;
  w.out_fd = fds[0];
  w.state = WorkerState::kStarting;
  if (respawn) {
    ++w.restarts;
    if (w.restart_counter != nullptr) w.restart_counter->add();
    STAMPEDE_LOG(kWarn) << "supervisor: restarted worker '" << w.node << "' (pid " << pid
                        << ", restart #" << w.restarts << ")";
  }
}

void Supervisor::reap_locked(Worker& w) {
  int status = 0;
  const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
  if (r != w.pid) return;
  w.last_exit = WIFEXITED(status)     ? WEXITSTATUS(status)
                : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                      : -1;
  w.pid = -1;
  w.metrics_port = 0;
  w.good_probes = 0;
  if (w.up_gauge != nullptr) w.up_gauge->set(0);
  if (!stopped_) {
    STAMPEDE_LOG(kWarn) << "supervisor: worker '" << w.node << "' died (exit "
                        << w.last_exit << ")";
    schedule_respawn_locked(w);
  }
}

void Supervisor::schedule_respawn_locked(Worker& w) {
  if (w.backoff <= Nanos{0}) w.backoff = config_.backoff_initial;
  w.state = WorkerState::kBackoff;
  w.next_spawn_ns = (clock_->now() + w.backoff).count();
  w.backoff = std::min(w.backoff * 2, config_.backoff_max);
}

void Supervisor::probe_fleet(const std::vector<ProbeTarget>& targets) {
  for (const ProbeTarget& t : targets) {
    const Nanos t0 = clock_->now();
    const auto health =
        telemetry::http_get("127.0.0.1", t.port, "/healthz", config_.probe_timeout);
    const Nanos latency = clock_->now() - t0;
    std::optional<std::string> metrics;
    if (health) {
      metrics =
          telemetry::http_get("127.0.0.1", t.port, "/metrics", config_.probe_timeout);
    }

    util::MutexLock lock(mu_);
    Worker& w = workers_[t.index];
    // The worker may have died or been respawned while we probed; fold
    // the result only if it still describes this incarnation.
    if (w.pid <= 0 || w.metrics_port != t.port) continue;
    if (health) {
      w.probe_ms = to_millis(latency);
      if (w.probe_gauge != nullptr) w.probe_gauge->set(latency.count());
      ++w.good_probes;
      if (w.state == WorkerState::kDegraded) w.state = WorkerState::kUp;
      if (w.state == WorkerState::kStarting && w.good_probes >= config_.healthy_probes) {
        w.state = WorkerState::kUp;
      }
      if (w.state == WorkerState::kUp) {
        w.backoff = Nanos{0};  // healthy again: next death backs off from scratch
        if (w.up_gauge != nullptr) w.up_gauge->set(1);
      }
      if (metrics) w.metrics = inject_node_label(*metrics, w.node);
    } else {
      ++w.probe_failures;
      w.good_probes = 0;
      if (w.state == WorkerState::kUp) w.state = WorkerState::kDegraded;
      if (w.up_gauge != nullptr) w.up_gauge->set(0);
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

const Supervisor::Worker* Supervisor::find(const std::string& node) const {
  for (const Worker& w : workers_) {
    if (w.node == node) return &w;
  }
  return nullptr;
}

WorkerStatus Supervisor::snapshot(const Worker& w) const {
  WorkerStatus s;
  s.node = w.node;
  s.state = w.state;
  s.pid = w.pid;
  s.restarts = w.restarts;
  s.metrics_port = w.metrics_port;
  s.probe_ms = w.probe_ms;
  s.probe_failures = w.probe_failures;
  s.last_exit = w.last_exit;
  return s;
}

WorkerStatus Supervisor::status(const std::string& node) const {
  util::MutexLock lock(mu_);
  const Worker* w = find(node);
  if (w == nullptr) throw std::invalid_argument("supervisor: unknown node '" + node + "'");
  return snapshot(*w);
}

std::vector<WorkerStatus> Supervisor::fleet() const {
  util::MutexLock lock(mu_);
  std::vector<WorkerStatus> out;
  out.reserve(workers_.size());
  for (const Worker& w : workers_) out.push_back(snapshot(w));
  return out;
}

bool Supervisor::all_up() const {
  util::MutexLock lock(mu_);
  for (const Worker& w : workers_) {
    if (w.state != WorkerState::kUp) return false;
  }
  return !workers_.empty();
}

bool Supervisor::wait_all_up(Nanos timeout) {
  const Nanos deadline = clock_->now() + timeout;
  while (!all_up()) {
    if (clock_->now() >= deadline) return false;
    clock_->sleep_for(millis(50));
  }
  return true;
}

std::string Supervisor::aggregated_metrics() const {
  util::MutexLock lock(mu_);
  std::string out;
  for (const Worker& w : workers_) out += w.metrics;
  return out;
}

std::string Supervisor::fleet_status_json() const {
  util::MutexLock lock(mu_);
  std::string out = "[";
  bool first = true;
  for (const Worker& w : workers_) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":\"" + telemetry::json_escape(w.node) + "\"";
    out += ",\"state\":\"";
    out += state_json(w.state);
    out += "\",\"pid\":" + std::to_string(w.pid);
    out += ",\"restarts\":" + std::to_string(w.restarts);
    out += ",\"metrics_port\":" + std::to_string(w.metrics_port);
    out += ",\"probe_ms\":" + std::to_string(w.probe_ms);
    out += ",\"probe_failures\":" + std::to_string(w.probe_failures);
    out += ",\"last_exit\":" + std::to_string(w.last_exit) + "}";
  }
  out += "]";
  return out;
}

}  // namespace stampede::control
