#include "control/fragment.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace stampede::control {

namespace {

const std::string& node_of_task(const Manifest& m, const std::string& task) {
  const auto it = m.task_node.find(task);
  if (it == m.task_node.end()) {
    throw std::invalid_argument("fragment: task '" + task + "' has no placement");
  }
  return it->second;
}

}  // namespace

ChannelSlots remote_slots(const Manifest& m, const PipelineSpec& spec,
                          const std::string& channel) {
  ChannelSlots slots;
  const auto host_it = m.channel_node.find(channel);
  if (host_it == m.channel_node.end()) {
    throw std::invalid_argument("fragment: channel '" + channel + "' has no placement");
  }
  const std::string& host = host_it->second;
  for (const PipelineSpec::Task& t : spec.tasks) {
    const std::string& node = node_of_task(m, t.name);
    if (node == host) continue;
    for (const std::string& out : t.outputs) {
      if (out == channel) slots.producers.push_back(t.name);
    }
    const bool reads = std::ranges::find(t.inputs, channel) != t.inputs.end();
    if (reads && std::ranges::find(slots.consumers, node) == slots.consumers.end()) {
      slots.consumers.push_back(node);
    }
  }
  return slots;
}

Fragment build_fragment(Runtime& rt, const Manifest& m, const PipelineSpec& spec,
                        const std::string& node) {
  const ManifestNode* self = m.find(node);
  if (!self) {
    throw std::invalid_argument("fragment: unknown node '" + node + "'");
  }

  Fragment frag;
  frag.state = spec.make_state ? spec.make_state(m.params) : nullptr;

  // Local channels (spec order), plus the export list for remote peers.
  std::map<std::string, Channel*> local;
  std::vector<net::ServedChannel> served;
  for (const std::string& name : spec.channels) {
    if (m.channel_node.at(name) != node) continue;
    Channel& ch = rt.add_channel({.name = name});
    local[name] = &ch;
    frag.channels.push_back(name);
    const ChannelSlots slots = remote_slots(m, spec, name);
    if (!slots.producers.empty() || !slots.consumers.empty()) {
      served.push_back({.channel = &ch,
                        .remote_producers = static_cast<int>(slots.producers.size()),
                        .remote_consumers = static_cast<int>(slots.consumers.size())});
    }
  }
  if (!served.empty()) {
    net::ServerConfig server_config;
    server_config.host = self->endpoint.host;
    server_config.port = self->endpoint.port;
    frag.server = std::make_unique<net::ChannelServer>(rt, served, server_config);
  }

  // Slot claimed by `who` (a task for a producer slot, this node for a
  // consumer slot) on the serving side of `channel`.
  const auto slot_of = [&](const std::string& who, const std::string& channel,
                           bool producer) -> std::int32_t {
    const ChannelSlots slots = remote_slots(m, spec, channel);
    const auto& list = producer ? slots.producers : slots.consumers;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == who) return static_cast<std::int32_t>(i);
    }
    throw std::invalid_argument("fragment: no remote slot for '" + who +
                                "' on channel '" + channel + "'");
  };
  const auto proxy = [&](const std::string& channel, std::int32_t producer_key,
                         std::int32_t consumer_key) -> net::RemoteChannel& {
    const ManifestNode& host = m.channel_host(channel);
    frag.proxies.push_back(std::make_unique<net::RemoteChannel>(
        rt, net::RemoteChannelConfig{
                .name = channel,
                .transport = {.host = host.endpoint.host, .port = host.endpoint.port},
                .producer_key = producer_key,
                .consumer_key = consumer_key}));
    return *frag.proxies.back();
  };

  // Remote inputs, in spec channel order: read by some local task, so
  // fetched once into a same-named mirror that the local readers share.
  std::map<std::string, Channel*> mirror;
  std::vector<net::RemoteChannel*> fetched;
  for (const std::string& name : spec.channels) {
    if (local.contains(name)) continue;
    const bool read_here = std::ranges::any_of(spec.tasks, [&](const PipelineSpec::Task& t) {
      return node_of_task(m, t.name) == node &&
             std::ranges::find(t.inputs, name) != t.inputs.end();
    });
    if (!read_here) continue;
    fetched.push_back(&proxy(name, -1, slot_of(node, name, /*producer=*/false)));
    mirror[name] = &rt.add_channel({.name = name});
  }

  // Local tasks, wired in port order; each remote output gets the task's
  // own proxy, so the proxy's put link keeps its single writer.
  for (const PipelineSpec::Task& t : spec.tasks) {
    if (node_of_task(m, t.name) != node) continue;
    TaskBody body = spec.make_body(t.name, m.params, frag.state);
    if (!body) {
      throw std::invalid_argument("fragment: pipeline '" + spec.name +
                                  "' has no body factory for task '" + t.name + "'");
    }
    TaskContext& task = rt.add_task({.name = t.name, .body = std::move(body)});
    frag.tasks.push_back(t.name);

    for (const std::string& out : t.outputs) {
      if (const auto it = local.find(out); it != local.end()) {
        rt.connect(task, *it->second);
      } else {
        rt.connect(task, proxy(out, slot_of(t.name, out, /*producer=*/true), -1));
      }
    }
    for (const std::string& in : t.inputs) {
      const auto it = local.find(in);
      rt.connect(it != local.end() ? *it->second : *mirror.at(in), task);
    }
  }

  // The fetch task: one per node, not one per channel. Walking the
  // inputs in order keeps the readers' cadence (a per-channel fetcher
  // paces each channel on its own and pulls items nobody reads), and its
  // summary-STP, folded from the mirrors, is what each get carries back.
  if (!fetched.empty()) {
    if (spec.find_task(kFetchTask) != nullptr) {
      throw std::invalid_argument("fragment: pipeline '" + spec.name +
                                  "' already has a task named '" + kFetchTask + "'");
    }
    const std::size_t inputs = fetched.size();
    TaskContext& fetch = rt.add_task(
        {.name = kFetchTask, .body = [inputs](TaskContext& ctx) {
           for (std::size_t i = 0; i < inputs; ++i) {
             std::shared_ptr<const Item> item = ctx.get(i);
             if (!item) return TaskStatus::kDone;
             // put() only reads an item another task made (it keeps its
             // producer's record and cost), so dropping const is safe.
             ctx.put(i, std::const_pointer_cast<Item>(std::move(item)));
           }
           return TaskStatus::kContinue;
         }});
    for (std::size_t i = 0; i < inputs; ++i) {
      rt.connect(*fetched[i], fetch);
      rt.connect(fetch, *mirror.at(fetched[i]->name()));
    }
  }

  if (frag.channels.empty() && frag.tasks.empty()) {
    throw std::invalid_argument("fragment: node '" + node +
                                "' hosts no tasks and no channels");
  }
  return frag;
}

}  // namespace stampede::control
