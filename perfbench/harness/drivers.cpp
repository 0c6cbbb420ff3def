#include "drivers.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/protocol.hpp"

namespace pb {

namespace {

using einet::serving::SubmitStatus;
using einet::serving::TaskResult;

Fate fate_of(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kQueued:
      return Fate::kAnswered;
    case SubmitStatus::kShed:
      return Fate::kShed;
    case SubmitStatus::kRejected:
    case SubmitStatus::kClosed:
      return Fate::kRejected;
  }
  return Fate::kError;
}

// Phase start offset: leaves the generator time to reach its first due
// instant before it is due.
constexpr double kLeadUs = 2000.0;

class InProcTarget final : public LoadTarget {
 public:
  explicit InProcTarget(SubmitFn submit) : submit_(std::move(submit)) {}

  void closed(const RoundSource& next_round, std::size_t window,
              Phase& out) override {
    // The generator refills in bursts: once the window is full it sleeps
    // until half of it has drained, so it wakes once per window/2
    // completions instead of once per completion.
    const auto full = static_cast<std::ptrdiff_t>(window);
    const std::ptrdiff_t refill = std::max<std::ptrdiff_t>(1, full / 2);
    free_.store(full);
    wake_at_ = refill;
    std::int64_t id = 0;
    out.start_us = now_us();
    for (auto round = next_round(); !round.empty(); round = next_round()) {
      for (const Request& r : round) {
        if (free_.load() == 0) wait_for_free(refill);
        free_.fetch_sub(1);
        Answer& a = out.answers.emplace_back();
        a.req = r;
        issue(a, id++);
      }
    }
    wake_at_ = full;
    wait_for_free(full);
  }

  void open(const std::vector<Request>& reqs,
            const std::vector<double>& offsets_us, Phase& out) override {
    const auto n = static_cast<std::ptrdiff_t>(reqs.size());
    free_.store(0);
    wake_at_ = n;
    out.start_us = now_us() + kLeadUs;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Answer& a = out.answers.emplace_back();
      a.req = reqs[i];
      a.due_us = out.start_us + offsets_us[i];
      wait_until_us(a.due_us);
      issue(a, static_cast<std::int64_t>(i));
    }
    wait_for_free(n);
  }

 private:
  /// Submit one request. Its answer arrives through the completion callback
  /// or, when the server decides synchronously, is recorded here; either
  /// way one slot is returned.
  void issue(Answer& a, std::int64_t id) {
    a.sent_us = now_us();
    const SubmitStatus status =
        submit_(a.req, id, [this, &a](const TaskResult& result) {
          a.outcome = result.outcome;
          a.done_us = now_us();
          a.fate = Fate::kAnswered;
          release();
        });
    if (status == SubmitStatus::kQueued) return;
    a.fate = fate_of(status);
    a.done_us = now_us();
    release();
  }

  void release() {
    if (free_.fetch_add(1) + 1 == wake_at_) free_.notify_one();
  }

  void wait_for_free(std::ptrdiff_t target) {
    for (auto v = free_.load(); v < target; v = free_.load()) free_.wait(v);
  }

  SubmitFn submit_;
  /// Free window slots (closed loop) or answers received (open loop). A
  /// member, not a local: workers may still be inside release() when the
  /// last wait returns; the target outlives the server's workers.
  std::atomic<std::ptrdiff_t> free_{0};
  /// Value of free_ whose arrival wakes the generator; set before the
  /// generator waits for it.
  std::atomic<std::ptrdiff_t> wake_at_{0};
};

class TcpTarget final : public LoadTarget {
 public:
  TcpTarget(std::uint16_t port, std::size_t connections,
            const einet::profiling::CSProfile& cs)
      : cs_(cs) {
    for (std::size_t i = 0; i < connections; ++i) conns_.push_back(dial(port));
  }

  ~TcpTarget() override {
    for (const Conn& c : conns_) ::close(c.fd);
  }

  TcpTarget(const TcpTarget&) = delete;
  TcpTarget& operator=(const TcpTarget&) = delete;

  void closed(const RoundSource& next_round, std::size_t window,
              Phase& out) override {
    begin(out);
    std::vector<Request> round;
    std::size_t next = 0;
    bool dry = false;
    while (true) {
      while (!dry && outstanding_ < window) {
        if (next == round.size()) {
          round = next_round();
          next = 0;
          if (round.empty()) {
            dry = true;
            break;
          }
        }
        Answer& a = out.answers.emplace_back();
        a.req = round[next++];
        send(a);
      }
      if (dry && outstanding_ == 0) break;
      if (!pump(kStallUs)) break;
    }
    end(out);
  }

  void open(const std::vector<Request>& reqs,
            const std::vector<double>& offsets_us, Phase& out) override {
    begin(out);
    out.start_us = now_us() + kLeadUs;
    std::size_t next = 0;
    while (next < reqs.size() || outstanding_ > 0) {
      const double now = now_us();
      while (next < reqs.size() && now >= out.start_us + offsets_us[next]) {
        Answer& a = out.answers.emplace_back();
        a.req = reqs[next];
        a.due_us = out.start_us + offsets_us[next];
        send(a);
        ++next;
      }
      // Busy-poll while requests remain to be sent (a sleeping generator
      // pays the host's wake-up latency as lateness); then block.
      if (!pump(next < reqs.size() ? 0.0 : kStallUs) && next == reqs.size())
        break;
    }
    end(out);
  }

 private:
  struct Conn {
    int fd = -1;
    einet::net::FrameDecoder decoder;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
  };

  /// A phase whose answers stop arriving for this long has lost them.
  static constexpr double kStallUs = 20e6;

  static Conn dial(std::uint16_t port) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) throw std::runtime_error{"socket() failed"};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(c.fd);
      throw std::runtime_error{std::string{"connect() failed: "} +
                               std::strerror(errno)};
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    return c;
  }

  void begin(Phase& out) {
    by_id_.clear();
    outstanding_ = 0;
    phase_ = &out;
    out.start_us = now_us();
  }

  void end(Phase& out) {
    // Whatever is still pending was lost.
    for (Answer* a : by_id_)
      if (a->fate == Fate::kPending) {
        a->fate = Fate::kError;
        ++out.transport_errors;
      }
    phase_ = nullptr;
  }

  void send(Answer& a) {
    const std::uint64_t id = by_id_.size();
    by_id_.push_back(&a);
    Conn& c = conns_[id % conns_.size()];
    einet::net::RequestFrame frame;
    frame.request_id = id;
    frame.deadline_ms = a.req.deadline_ms;
    frame.record = cs_.records[a.req.item];
    std::vector<std::uint8_t> bytes;
    {
      BenchSpan span{"bench.encode", static_cast<std::int64_t>(id)};
      bytes = einet::net::encode_request(frame);
    }
    c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
    if (a.due_us == 0.0) a.due_us = now_us();
    a.sent_us = now_us();
    ++outstanding_;
    flush(c);
  }

  void flush(Conn& c) {
    while (c.woff < c.wbuf.size()) {
      const ssize_t n =
          ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff,
                 MSG_NOSIGNAL);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error{"send() failed"};
    }
    c.wbuf.clear();
    c.woff = 0;
  }

  /// Wait up to `wait_us` for socket events and handle them. Returns false
  /// when a blocking wait timed out with answers still outstanding.
  bool pump(double wait_us) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].woff < conns_[i].wbuf.size() ? POLLOUT : 0));
    }
    const auto ns = static_cast<long long>(wait_us * 1000.0);
    const timespec ts{.tv_sec = ns / 1'000'000'000LL,
                      .tv_nsec = ns % 1'000'000'000LL};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return true;
      throw std::runtime_error{"ppoll() failed"};
    }
    if (ready == 0) return wait_us < kStallUs || outstanding_ == 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(conns_[i]);
    }
    return true;
  }

  void receive(Conn& c) {
    std::uint8_t buf[65536];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        while (auto frame = c.decoder.next()) handle(*frame);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error{"connection lost"};
    }
  }

  void handle(const einet::net::Frame& frame) {
    const double t = now_us();
    if (frame.type != einet::net::FrameType::kResponse) {
      ++phase_->transport_errors;
      if (frame.type == einet::net::FrameType::kError) {
        const auto err = einet::net::decode_error(frame.body);
        if (err.request_id < by_id_.size()) settle(err.request_id, t);
      }
      return;
    }
    einet::net::ResponseFrame resp;
    {
      BenchSpan span{"bench.decode", einet::obs::kNoArg};
      resp = einet::net::decode_response(frame.body);
    }
    if (resp.request_id >= by_id_.size() ||
        by_id_[resp.request_id]->fate != Fate::kPending) {
      ++phase_->transport_errors;
      return;
    }
    Answer& a = *by_id_[resp.request_id];
    a.fate = fate_of(resp.status);
    a.outcome = resp.outcome;
    a.done_us = t;
    --outstanding_;
  }

  void settle(std::uint64_t id, double t) {
    Answer& a = *by_id_[id];
    if (a.fate != Fate::kPending) return;
    a.fate = Fate::kError;
    a.done_us = t;
    --outstanding_;
  }

  const einet::profiling::CSProfile& cs_;
  std::vector<Conn> conns_;
  std::vector<Answer*> by_id_;
  std::size_t outstanding_ = 0;
  Phase* phase_ = nullptr;
};

}  // namespace

std::unique_ptr<LoadTarget> make_inproc_target(SubmitFn submit) {
  return std::make_unique<InProcTarget>(std::move(submit));
}

std::unique_ptr<LoadTarget> make_tcp_target(
    std::uint16_t port, std::size_t connections,
    const einet::profiling::CSProfile& cs) {
  return std::make_unique<TcpTarget>(port, connections, cs);
}

}  // namespace pb
