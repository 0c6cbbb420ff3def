// Load drivers: the closed and open loops that feed one serving instance,
// either in-process through EdgeServer::submit* callbacks or over loopback
// TCP through a single-threaded pipelining client.
#pragma once
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "profiling/profiles.hpp"
#include "serving/server.hpp"

namespace pb {

/// Everything one load phase produced.
struct Phase {
  std::deque<Answer> answers;  // deque: callbacks hold stable references
  double start_us = 0.0;
  /// Error frames and responses that never arrived (TCP only).
  std::uint64_t transport_errors = 0;
};

/// Supplies whole rounds of requests to a closed loop; an empty round ends it.
using RoundSource = std::function<std::vector<Request>()>;

class LoadTarget {
 public:
  virtual ~LoadTarget() = default;
  /// Closed loop: keep `window` requests outstanding until the source runs
  /// dry, then wait for every answer.
  virtual void closed(const RoundSource& next_round, std::size_t window,
                      Phase& out) = 0;
  /// Open loop: request i is due `offsets_us[i]` after the phase starts and
  /// is sent then, whatever is still outstanding.
  virtual void open(const std::vector<Request>& reqs,
                    const std::vector<double>& offsets_us, Phase& out) = 0;
};

/// Hands one request to the program; `id` is the harness request id (trace
/// attribution only). Must return the server's verdict and, when it is
/// kQueued, invoke `done` exactly once later.
using SubmitFn = std::function<einet::serving::SubmitStatus(
    const Request&, std::int64_t id, einet::serving::CompletionCallback done)>;

/// In-process load: the calling thread is the generator.
[[nodiscard]] std::unique_ptr<LoadTarget> make_inproc_target(SubmitFn submit);

/// Loopback TCP load over `connections` sockets to 127.0.0.1:`port`, one
/// thread sending and receiving. Request frames carry `cs.records[item]`.
[[nodiscard]] std::unique_ptr<LoadTarget> make_tcp_target(
    std::uint16_t port, std::size_t connections,
    const einet::profiling::CSProfile& cs);

}  // namespace pb
