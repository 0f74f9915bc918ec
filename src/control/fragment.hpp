/// \file fragment.hpp
/// \brief Builds one node's slice of a manifest-deployed pipeline into a
///        local Runtime.
///
/// Every worker parses the *full* manifest and derives its own fragment:
/// local channels become real `Channel`s (exported through one
/// `ChannelServer` on the node's fixed endpoint when any peer is
/// remote). A task writing a remote channel puts through its own
/// `RemoteChannel` proxy. A remote channel the node *reads* is fetched
/// once per node: one proxy per (node, channel) feeds a node-local
/// mirror `Channel` of the same name, and the local consumers read the
/// mirror. One `fetch` task per node drives all of its proxies, so each
/// remote item crosses the wire once however many local tasks use it,
/// and the mirror folds their summary-STPs into the one value the
/// fetch carries upstream (the paper's channel node, §3.3.2).
///
/// Endpoint slots are agreed without any runtime handshake: both sides
/// walk the spec's task list in declaration order, so the k-th remote
/// producer (or consuming node) of a channel computes the same k
/// everywhere (see remote_slots()).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/manifest.hpp"
#include "net/remote_channel.hpp"
#include "runtime/runtime.hpp"

namespace stampede::control {

/// Deterministic endpoint-slot assignment for one channel: element i of
/// `producers` is the task claiming producer_key=i (tasks placed off the
/// channel's node, in spec declaration order); element i of `consumers`
/// is the *node* claiming consumer_key=i (off-host nodes with a task
/// reading the channel, in order of their first such task in the spec).
struct ChannelSlots {
  std::vector<std::string> producers;
  std::vector<std::string> consumers;
};

ChannelSlots remote_slots(const Manifest& m, const PipelineSpec& spec,
                          const std::string& channel);

/// Name of the task that fetches a node's remote inputs into its mirrors.
inline constexpr const char* kFetchTask = "fetch";

/// One node's slice of a deployment. Proxies and the server are owned
/// here (the Runtime holds non-owning graph references); keep the
/// fragment alive until after Runtime::stop().
struct Fragment {
  /// Names of the channels hosted locally (in spec order). Mirrors of
  /// remote channels are not listed: they are not served.
  std::vector<std::string> channels;
  /// Names of the spec tasks running locally (in spec order). The fetch
  /// task, built when the node reads any remote channel, is not listed.
  std::vector<std::string> tasks;
  /// One per remote input channel (spec channel order), then one per
  /// (task, remote output channel).
  std::vector<std::unique_ptr<net::RemoteChannel>> proxies;
  /// Non-null when any local channel has a remote producer or consumer.
  /// Constructed but not started: call server->start() after rt.start().
  std::unique_ptr<net::ChannelServer> server;
  std::shared_ptr<void> state;
};

/// Builds `node`'s fragment into `rt`. The manifest must have passed
/// validate(). Throws std::invalid_argument for an unknown node name, or
/// when the node needs a fetch task and the spec has a task of that name.
/// Call before rt.start(); the node's server (if any) binds on
/// server->start().
Fragment build_fragment(Runtime& rt, const Manifest& m, const PipelineSpec& spec,
                        const std::string& node);

}  // namespace stampede::control
