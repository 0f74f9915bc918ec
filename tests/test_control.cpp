/// \file test_control.cpp
/// \brief Control plane: manifest parsing/validation, fragment building,
///        graceful worker shutdown, and the full self-healing loop
///        (worker SIGKILL -> supervisor restart -> link re-attach ->
///        summary-STP re-convergence across the new process).
///
/// Two tiers, like test_net_reconnect: in-process structure tests that
/// run everywhere, and multi-process supervision tests driving the real
/// spd_node binary (SPD_NODE_PATH).
#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "control/fragment.hpp"
#include "control/manifest.hpp"
#include "control/pipelines.hpp"
#include "control/supervisor.hpp"
#include "net/socket.hpp"
#include "runtime/runtime.hpp"
#include "util/options.hpp"

extern char** environ;

namespace stampede::control {
namespace {

Options opts(const std::string& text) { return Options::parse_text(text, "test"); }

/// A loopback port that was free a moment ago (bind ephemeral, read,
/// release). Races with other suites are possible but rare; the big
/// supervision test keeps the listener-to-use window short.
std::uint16_t free_port() {
  auto l = net::TcpListener::listen(0);
  EXPECT_TRUE(l && l->valid());
  return l ? l->port() : 0;
}

std::string tracker_manifest_text(std::uint16_t front, std::uint16_t mid,
                                  std::uint16_t back) {
  return "pipeline=tracker\nseed=7\nscale=0.25\n"
         "node.front=127.0.0.1:" + std::to_string(front) + "\n"
         "node.mid=127.0.0.1:" + std::to_string(mid) + "\n"
         "node.back=127.0.0.1:" + std::to_string(back) + "\n"
         "place.digitizer=front\n"
         "place.frames=mid\nplace.masks=mid\nplace.hists=mid\n"
         "place.background=mid\nplace.histogram=mid\n"
         "place.detect1=back\nplace.detect2=back\n"
         "place.loc1=back\nplace.loc2=back\nplace.gui=back\n";
}

// ---------------------------------------------------------------------------
// Pipeline registry
// ---------------------------------------------------------------------------

TEST(Pipelines, RegistryKnowsTrackerAndRelay) {
  ASSERT_NE(find_pipeline("tracker"), nullptr);
  ASSERT_NE(find_pipeline("relay"), nullptr);
  EXPECT_EQ(find_pipeline("nope"), nullptr);
  const PipelineSpec& tracker = *find_pipeline("tracker");
  EXPECT_EQ(tracker.tasks.size(), 6u);
  EXPECT_EQ(tracker.channels.size(), 5u);
  // Port order is part of the spec contract: detect reads masks, hists,
  // frames on ports 0, 1, 2 (the stage factory's expectation).
  const PipelineSpec::Task* detect = tracker.find_task("detect1");
  ASSERT_NE(detect, nullptr);
  EXPECT_EQ(detect->inputs, (std::vector<std::string>{"masks", "hists", "frames"}));
}

TEST(Pipelines, RegistryKnowsStereo) {
  const PipelineSpec* stereo = find_pipeline("stereo");
  ASSERT_NE(stereo, nullptr);
  EXPECT_EQ(stereo->tasks.size(), 4u);
  EXPECT_EQ(stereo->channels, (std::vector<std::string>{"left", "right", "depths"}));
  // Port order is the spec contract: the matcher reads the latest left on
  // input 0 and random-accesses the right (get_at correspondence) on 1.
  const PipelineSpec::Task* matcher = stereo->find_task("stereo-matcher");
  ASSERT_NE(matcher, nullptr);
  EXPECT_EQ(matcher->inputs, (std::vector<std::string>{"left", "right"}));
  EXPECT_EQ(matcher->outputs, (std::vector<std::string>{"depths"}));
  // Every task body must be buildable from the registered factories.
  PipelineParams params;
  params.scale = 0.25;
  const std::shared_ptr<void> state = stereo->make_state(params);
  ASSERT_NE(state, nullptr);
  for (const PipelineSpec::Task& t : stereo->tasks) {
    EXPECT_TRUE(static_cast<bool>(stereo->make_body(t.name, params, state)))
        << "no body for task '" << t.name << "'";
  }
}

// ---------------------------------------------------------------------------
// Manifest grammar + validation
// ---------------------------------------------------------------------------

TEST(Manifest, EndpointParse) {
  const Endpoint ep = Endpoint::parse("10.0.0.3:17641", "t");
  EXPECT_EQ(ep.host, "10.0.0.3");
  EXPECT_EQ(ep.port, 17641);
  EXPECT_THROW(Endpoint::parse("nohost", "t"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse(":17641", "t"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("h:", "t"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("h:abc", "t"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("h:17641x", "t"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("h:70000", "t"), std::invalid_argument);
  // Port 0 is rejected by design: a restarted worker must rebind the
  // same endpoint for surviving peers to find it.
  EXPECT_THROW(Endpoint::parse("h:0", "t"), std::invalid_argument);
}

TEST(Manifest, ParseAndValidateTracker) {
  Manifest m = Manifest::parse(opts(tracker_manifest_text(17641, 17642, 17643)));
  EXPECT_EQ(m.pipeline, "tracker");
  EXPECT_EQ(m.params.seed, 7u);
  EXPECT_EQ(m.params.scale, 0.25);
  ASSERT_EQ(m.nodes.size(), 3u);
  // Declaration order assigns topology indices. Options sorts keys, so
  // order here is alphabetical: back, front, mid.
  EXPECT_EQ(m.nodes[0].name, "back");
  EXPECT_EQ(m.nodes[0].index, 0);
  ASSERT_NE(m.find("mid"), nullptr);
  EXPECT_EQ(m.find("mid")->endpoint.port, 17642);

  const cluster::Topology topo = validate(m, *find_pipeline("tracker"));
  EXPECT_EQ(m.task_node.size(), 6u);
  EXPECT_EQ(m.channel_node.size(), 5u);
  EXPECT_EQ(m.task_node.at("digitizer"), "front");
  EXPECT_EQ(m.channel_node.at("frames"), "mid");
  EXPECT_EQ(&m.channel_host("frames"), m.find("mid"));
  for (const ManifestNode& n : m.nodes) EXPECT_TRUE(topo.valid(n.index));
}

TEST(Manifest, ParseRejectsStructuralGarbage) {
  EXPECT_THROW(Manifest::parse(opts("node.a=127.0.0.1:1\n")), std::invalid_argument)
      << "missing pipeline=";
  EXPECT_THROW(Manifest::parse(opts("pipeline=tracker\n")), std::invalid_argument)
      << "no nodes";
  EXPECT_THROW(Manifest::parse(opts("pipeline=t\nnode.=127.0.0.1:1\n")),
               std::invalid_argument)
      << "empty node name";
  EXPECT_THROW(Manifest::parse(opts("pipeline=t\nnode.a=127.0.0.1:1\nplace.=a\n")),
               std::invalid_argument)
      << "empty placement target";
}

TEST(Manifest, ValidateNamesTheFirstProblem) {
  const PipelineSpec& spec = *find_pipeline("tracker");
  const auto expect_invalid = [&spec](std::string text, const std::string& needle) {
    Manifest m = Manifest::parse(opts(text));
    try {
      validate(m, spec);
      FAIL() << "expected rejection mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };

  std::string good = tracker_manifest_text(17641, 17642, 17643);
  expect_invalid(good + "place.gui=nowhere\n", "unknown node");
  expect_invalid(good + "place.warp_drive=front\n", "no task or channel");
  expect_invalid(good + "node.mid2=127.0.0.1:17642\n", "share endpoint");

  // Drop the gui placement entirely: every task must be placed.
  std::string unplaced;
  for (std::size_t pos = 0; pos < good.size();) {
    std::size_t end = good.find('\n', pos);
    const std::string line = good.substr(pos, end - pos);
    if (line.rfind("place.gui=", 0) != 0) unplaced += line + "\n";
    pos = end + 1;
  }
  expect_invalid(unplaced, "'gui' has no placement");

  // Wrong spec for the manifest's pipeline name.
  Manifest m = Manifest::parse(opts(good));
  EXPECT_THROW(validate(m, *find_pipeline("relay")), std::invalid_argument);
}

TEST(Manifest, ParseAndValidateStereo) {
  // The stereo matcher random-accesses both frame channels via get_at, so
  // a deployable manifest co-locates it with them (a RemoteChannel proxy
  // only speaks latest/summary); the depth stream may hop nodes.
  const std::string text =
      "pipeline=stereo\nseed=21\nscale=0.25\n"
      "node.rig=127.0.0.1:17645\n"
      "node.viz=127.0.0.1:17646\n"
      "place.camera-left=rig\nplace.camera-right=rig\n"
      "place.left=rig\nplace.right=rig\n"
      "place.stereo-matcher=rig\nplace.depths=rig\n"
      "place.depth-sink=viz\n";
  Manifest m = Manifest::parse(opts(text));
  EXPECT_EQ(m.pipeline, "stereo");
  EXPECT_EQ(m.params.seed, 21u);

  const cluster::Topology topo = validate(m, *find_pipeline("stereo"));
  EXPECT_EQ(m.task_node.size(), 4u);
  EXPECT_EQ(m.channel_node.size(), 3u);
  EXPECT_EQ(m.task_node.at("stereo-matcher"), m.channel_node.at("left"))
      << "the matcher must be co-located with the channels it random-accesses";
  for (const ManifestNode& n : m.nodes) EXPECT_TRUE(topo.valid(n.index));

  // A spec/manifest mismatch must still be named: a stereo manifest does
  // not validate against the relay spec.
  EXPECT_THROW(validate(m, *find_pipeline("relay")), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fragments: what each worker builds locally
// ---------------------------------------------------------------------------

class FragmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    manifest_ = Manifest::parse(opts(tracker_manifest_text(17641, 17642, 17643)));
    validate(manifest_, *find_pipeline("tracker"));
  }
  Manifest manifest_;
  const PipelineSpec& spec_ = *find_pipeline("tracker");
};

TEST_F(FragmentTest, RemoteSlotsAreDeterministicSpecOrder) {
  // frames lives on mid; its remote producers are the off-node tasks in
  // spec task order, its remote consumers the off-node *nodes* in order
  // of their first reading task. background/histogram are local to mid,
  // and detect1/detect2 share back's one fetch, so back is the only
  // remote consumer.
  const ChannelSlots frames = remote_slots(manifest_, spec_, "frames");
  EXPECT_EQ(frames.producers, (std::vector<std::string>{"digitizer"}));
  EXPECT_EQ(frames.consumers, (std::vector<std::string>{"back"}));

  // loc1 is on back with both endpoints local: no remote slots, so the
  // back node's server never exports it.
  const ChannelSlots loc1 = remote_slots(manifest_, spec_, "loc1");
  EXPECT_TRUE(loc1.producers.empty());
  EXPECT_TRUE(loc1.consumers.empty());

  EXPECT_THROW(remote_slots(manifest_, spec_, "nope"), std::invalid_argument);
}

TEST_F(FragmentTest, FrontHostsDigitizerAndOneProxy) {
  Runtime rt;
  const Fragment frag = build_fragment(rt, manifest_, spec_, "front");
  EXPECT_EQ(frag.tasks, (std::vector<std::string>{"digitizer"}));
  EXPECT_TRUE(frag.channels.empty());
  EXPECT_EQ(frag.proxies.size(), 1u);  // frames output -> mid
  EXPECT_EQ(rt.tasks(), 1u) << "no remote inputs, so no fetch task";
  EXPECT_EQ(frag.server, nullptr) << "no local channels, nothing to serve";
}

TEST_F(FragmentTest, MidHostsAnalysisChannelsAndServesThem) {
  Runtime rt;
  const Fragment frag = build_fragment(rt, manifest_, spec_, "mid");
  EXPECT_EQ(frag.channels, (std::vector<std::string>{"frames", "masks", "hists"}));
  EXPECT_EQ(frag.tasks, (std::vector<std::string>{"background", "histogram"}));
  EXPECT_TRUE(frag.proxies.empty()) << "background/histogram touch only mid channels";
  EXPECT_EQ(rt.tasks(), 2u) << "no remote inputs, so no fetch task";
  EXPECT_EQ(rt.channels(), 3u) << "no mirrors";
  ASSERT_NE(frag.server, nullptr);
}

TEST_F(FragmentTest, BackFetchesEachMidChannelOnceIntoMirrors) {
  Runtime rt;
  const Fragment frag = build_fragment(rt, manifest_, spec_, "back");
  EXPECT_EQ(frag.tasks, (std::vector<std::string>{"detect1", "detect2", "gui"}));
  EXPECT_EQ(frag.channels, (std::vector<std::string>{"loc1", "loc2"}));
  // detect1 + detect2 share one proxy per mid channel, in spec channel
  // order, each feeding a same-named mirror that both detectors read.
  ASSERT_EQ(frag.proxies.size(), 3u);
  EXPECT_EQ(frag.proxies[0]->name(), "frames");
  EXPECT_EQ(frag.proxies[1]->name(), "masks");
  EXPECT_EQ(frag.proxies[2]->name(), "hists");
  EXPECT_EQ(rt.channels(), 5u) << "loc1, loc2 and three mirrors";
  EXPECT_EQ(rt.tasks(), 4u) << "the three spec tasks plus one fetch task";
  EXPECT_EQ(frag.server, nullptr) << "loc1/loc2 have no remote peers";
}

/// source -> stream -> {reader1, reader2}: the stream and its source on
/// node "a", both readers on node "b". Reader k records the ids it gets
/// in seen[k] (read once the readers are joined) and its newest
/// timestamp in newest[k].
struct FanOut {
  std::array<std::vector<ItemId>, 2> seen;
  std::array<std::atomic<Timestamp>, 2> newest{Timestamp{-1}, Timestamp{-1}};
};

PipelineSpec fan_out_spec(std::size_t payload) {
  PipelineSpec spec;
  spec.name = "fanout";
  spec.channels = {"stream"};
  spec.tasks = {
      {.name = "source", .inputs = {}, .outputs = {"stream"}},
      {.name = "reader1", .inputs = {"stream"}, .outputs = {}},
      {.name = "reader2", .inputs = {"stream"}, .outputs = {}},
  };
  spec.make_state = [](const PipelineParams&) -> std::shared_ptr<void> {
    return std::make_shared<FanOut>();
  };
  spec.make_body = [payload](const std::string& task, const PipelineParams&,
                             const std::shared_ptr<void>& state) -> TaskBody {
    auto fan = std::static_pointer_cast<FanOut>(state);
    if (task == "source") {
      return [payload, ts = Timestamp{0}](TaskContext& ctx) mutable {
        if (ts == 40) return TaskStatus::kDone;
        auto item = ctx.make_item(ts++, payload, {});
        std::ranges::fill(item->mutable_data(), std::byte{1});
        ctx.put(0, item);
        ctx.clock().sleep_for(millis(5));
        return TaskStatus::kContinue;
      };
    }
    const std::size_t k = task == "reader1" ? 0 : 1;
    return [fan, k](TaskContext& ctx) {
      // Read every item (get_next), so both readers must see the same ids.
      auto item = ctx.get_next(0);
      if (!item) return TaskStatus::kDone;
      fan->seen[k].push_back(item->id());
      fan->newest[k].store(item->ts());
      return TaskStatus::kContinue;
    };
  };
  return spec;
}

TEST(FragmentLoopback, TwoLocalReadersShareOneFetch) {
  constexpr std::size_t kPayload = 64 * 1024;
  constexpr std::size_t kItems = 40;
  const std::uint16_t port_a = free_port();
  const std::uint16_t port_b = free_port();
  ASSERT_NE(port_a, 0);
  ASSERT_NE(port_b, 0);
  ASSERT_NE(port_a, port_b);
  const PipelineSpec spec = fan_out_spec(kPayload);
  Manifest m = Manifest::parse(
      opts("pipeline=fanout\n"
           "node.a=127.0.0.1:" + std::to_string(port_a) + "\n"
           "node.b=127.0.0.1:" + std::to_string(port_b) + "\n"
           "place.source=a\nplace.stream=a\nplace.reader1=b\nplace.reader2=b\n"));
  validate(m, spec);

  Runtime rt_a;
  Runtime rt_b;
  Fragment frag_a = build_fragment(rt_a, m, spec, "a");
  Fragment frag_b = build_fragment(rt_b, m, spec, "b");
  ASSERT_NE(frag_a.server, nullptr);
  ASSERT_EQ(frag_b.proxies.size(), 1u) << "one proxy for the node, not one per reader";
  rt_a.start();
  frag_a.server->start();
  rt_b.start();

  auto& fan = *std::static_pointer_cast<FanOut>(frag_b.state);
  const auto read_all = [&] {
    const Timestamp last = static_cast<Timestamp>(kItems) - 1;
    return fan.newest[0].load() == last && fan.newest[1].load() == last;
  };
  Clock& clock = RealClock::instance();
  const Nanos deadline = clock.now() + seconds(30);
  while (!read_all() && clock.now() < deadline) clock.sleep_for(millis(10));
  const double rx = static_cast<double>(
      rt_b.metrics().counter("aru_net_rx_bytes_total", "", {{"link", "stream/get"}}).value());
  const double arena = static_cast<double>(
      rt_b.metrics().counter("aru_net_arena_bytes_total", "", {{"link", "stream/get"}}).value());
  rt_b.stop();
  rt_a.stop();
  frag_a.server->stop();

  ASSERT_TRUE(read_all()) << "the readers never saw the last item";
  // The fetch may skip an item the source outran; what it fetched, both
  // readers read (get_next), as the same local item.
  const std::vector<ItemId>& ids = fan.seen[0];
  ASSERT_GE(ids.size(), kItems / 2);
  EXPECT_EQ(ids, fan.seen[1]) << "both readers see the same fetched items";
  // Every item crossed the wire once: about one payload per item (plus
  // envelopes and heartbeats), where a proxy per reader would take two.
  const double payloads = static_cast<double>(ids.size() * kPayload);
  EXPECT_GE(rx, payloads);
  EXPECT_LT(rx, 1.25 * payloads);
  // The nodes share a host, so the payloads came out of a's arena, not
  // the TCP stream; rx counts them either way.
  EXPECT_GE(arena, payloads);
  EXPECT_LT(arena, 1.25 * payloads);
  EXPECT_LE(arena, rx);
}

TEST_F(FragmentTest, UnknownOrEmptyNodeIsRejected) {
  Runtime rt;
  EXPECT_THROW(build_fragment(rt, manifest_, spec_, "nope"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Multi-process tier: graceful shutdown + the self-healing loop
// ---------------------------------------------------------------------------

/// Writes `text` to a fresh file under the test temp dir.
std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  EXPECT_TRUE(out.good());
  return path;
}

pid_t spawn_worker(const std::vector<std::string>& args_in) {
  std::vector<std::string> args = {SPD_NODE_PATH};
  args.insert(args.end(), args_in.begin(), args_in.end());
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, SPD_NODE_PATH, nullptr, nullptr, argv.data(), environ);
  return rc == 0 ? pid : -1;
}

TEST(SpdNode, SigtermAndSigintExitZero) {
  for (const int signo : {SIGTERM, SIGINT}) {
    // seconds=0: the worker runs until signalled, the supervisor contract.
    const pid_t pid =
        spawn_worker({"channels=frames:1:1", "seconds=0", "quiet=true", "port=0"});
    ASSERT_GT(pid, 0) << "failed to spawn " << SPD_NODE_PATH;
    // Give it a beat to get past startup (the handler is installed before
    // any of that, so this only makes the test exercise the steady state).
    RealClock::instance().sleep_for(millis(300));
    ASSERT_EQ(::kill(pid, signo), 0);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    EXPECT_TRUE(WIFEXITED(status)) << "signal " << signo << ": worker must exit, "
                                   << "not die on the signal";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "signal " << signo;
  }
}

TEST(SpdNode, ManifestModeRequiresKnownNode) {
  const std::string path = write_file(
      "bad_node.manifest",
      "pipeline=relay\nnode.a=127.0.0.1:17651\nplace.source=a\nplace.stream=a\n"
      "place.sink=a\n");
  const pid_t pid = spawn_worker({"manifest=" + path, "node=ghost", "quiet=true"});
  ASSERT_GT(pid, 0);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0) << "unknown node must be a startup error";
}

/// Value of the first series starting with `prefix` in a metrics body.
double scrape_metric(const std::string& body, const std::string& prefix) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t space = line.rfind(' ');
      if (space != std::string::npos) return std::strtod(line.c_str() + space + 1, nullptr);
    }
    pos = end + 1;
  }
  return -1.0;
}

TEST(Supervisor, SelfHealingLoopReconvergesSummaryStp) {
  // Relay pipeline on two nodes: "src" holds the source task and nothing
  // else; "buf" holds the stream channel and the sink. Killing buf takes
  // down the channel host — the hardest case, since the surviving src
  // worker must ride Transport reconnect + server slot re-attach into a
  // brand-new process before feedback can flow again.
  const std::uint16_t src_port = free_port();
  const std::uint16_t buf_port = free_port();
  ASSERT_NE(src_port, 0);
  ASSERT_NE(buf_port, 0);
  ASSERT_NE(src_port, buf_port);
  // Named per process: TempDir() is shared by every suite running at once,
  // and a restarted worker re-reads this file.
  const std::string manifest_path = write_file(
      "relay." + std::to_string(::getpid()) + ".manifest",
      "pipeline=relay\nseed=11\nscale=0.5\n"
      "node.src=127.0.0.1:" + std::to_string(src_port) + "\n"
      "node.buf=127.0.0.1:" + std::to_string(buf_port) + "\n"
      "place.source=src\nplace.stream=buf\nplace.sink=buf\n");

  Manifest manifest = Manifest::load(manifest_path);
  validate(manifest, *find_pipeline("relay"));

  SupervisorConfig cfg;
  cfg.worker_path = SPD_NODE_PATH;
  cfg.manifest_path = manifest_path;
  cfg.probe_interval = millis(50);
  cfg.probe_timeout = millis(500);
  cfg.backoff_initial = millis(50);
  cfg.backoff_max = millis(500);
  cfg.stop_grace = seconds(10);
  cfg.forward_output = false;

  Supervisor sup(manifest, cfg);
  sup.start();
  Clock& clock = RealClock::instance();
  ASSERT_TRUE(sup.wait_all_up(seconds(30))) << sup.fleet_status_json();
  EXPECT_EQ(sup.fleet().size(), 2u);

  // Phase 1: the feedback loop converges — the buf worker's channel
  // summary-STP gauge goes non-zero in the AGGREGATED metrics (so this
  // also proves the probe -> relabel -> merge path).
  const std::string series = "aru_channel_summary_stp_ns{node=\"buf\",channel=\"stream\"}";
  const auto gauge = [&] { return scrape_metric(sup.aggregated_metrics(), series); };
  Nanos deadline = clock.now() + seconds(30);
  while (gauge() <= 0.0 && clock.now() < deadline) clock.sleep_for(millis(100));
  ASSERT_GT(gauge(), 0.0) << "summary-STP never converged before the kill:\n"
                          << sup.fleet_status_json();

  // Phase 2: SIGKILL the channel host mid-run.
  const pid_t victim = sup.pid("buf");
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The supervisor must notice, back off, respawn, and probe it healthy.
  deadline = clock.now() + seconds(30);
  while (clock.now() < deadline) {
    const WorkerStatus st = sup.status("buf");
    if (st.restarts >= 1 && st.state == WorkerState::kUp) break;
    clock.sleep_for(millis(50));
  }
  const WorkerStatus restarted = sup.status("buf");
  EXPECT_GE(restarted.restarts, 1);
  EXPECT_EQ(restarted.state, WorkerState::kUp) << sup.fleet_status_json();
  EXPECT_NE(restarted.pid, victim) << "a restart is a new process";
  EXPECT_EQ(restarted.last_exit, 128 + SIGKILL) << "SIGKILL death must be recorded";
  EXPECT_EQ(sup.restarts("src"), 0) << "the surviving worker must not be touched";

  // Phase 3: re-convergence. kUp means the new incarnation has been
  // probed, so the aggregated body is the new process's — whose gauge
  // starts over at 0 and must climb back above it as the src worker's
  // proxy re-attaches and feedback flows.
  deadline = clock.now() + seconds(30);
  while (gauge() <= 0.0 && clock.now() < deadline) clock.sleep_for(millis(100));
  EXPECT_GT(gauge(), 0.0) << "summary-STP did not re-converge after the restart:\n"
                          << sup.aggregated_metrics();

  // The fleet /status JSON names both workers with their state.
  const std::string status = sup.fleet_status_json();
  EXPECT_NE(status.find("\"node\":\"src\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"node\":\"buf\""), std::string::npos) << status;

  // Graceful stop: both workers take the SIGTERM path and exit 0.
  sup.stop();
  for (const WorkerStatus& st : sup.fleet()) {
    EXPECT_EQ(st.state, WorkerState::kStopped);
    EXPECT_EQ(st.last_exit, 0) << "node " << st.node << " did not exit cleanly";
  }
  std::remove(manifest_path.c_str());
}

TEST(Supervisor, StartStopWithoutTrafficIsClean) {
  const std::uint16_t port = free_port();
  ASSERT_NE(port, 0);
  const std::string manifest_path = write_file(
      "solo.manifest",
      "pipeline=relay\nscale=0.5\nnode.only=127.0.0.1:" + std::to_string(port) +
          "\nplace.source=only\nplace.stream=only\nplace.sink=only\n");
  Manifest manifest = Manifest::load(manifest_path);
  validate(manifest, *find_pipeline("relay"));

  SupervisorConfig cfg;
  cfg.worker_path = SPD_NODE_PATH;
  cfg.manifest_path = manifest_path;
  cfg.probe_interval = millis(50);
  cfg.forward_output = false;
  Supervisor sup(manifest, cfg);
  sup.start();
  ASSERT_TRUE(sup.wait_all_up(seconds(30))) << sup.fleet_status_json();
  sup.stop();
  const std::vector<WorkerStatus> fleet = sup.fleet();
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0].state, WorkerState::kStopped);
  EXPECT_EQ(fleet[0].last_exit, 0);
  EXPECT_EQ(fleet[0].restarts, 0);
  // stop() is idempotent, and a stopped fleet stays stopped.
  sup.stop();
  EXPECT_EQ(sup.fleet()[0].state, WorkerState::kStopped);
}

}  // namespace
}  // namespace stampede::control
