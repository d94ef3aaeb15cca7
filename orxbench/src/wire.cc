#include "wire.h"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "net/net_util.h"

namespace orxbench {

// --- ServeProcess -----------------------------------------------------------

namespace {

int CpuCount() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

void PinTo(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void PinToServerCpus() {
  if (CpuCount() >= 2) PinTo(0, CpuCount() - 2);
}

void PinToClientCpu() {
  if (CpuCount() >= 2) PinTo(CpuCount() - 1, CpuCount() - 1);
}

void UnpinThisThread() { PinTo(0, CpuCount() - 1); }

std::string ServeProcess::Start(const std::string& binary, double scale,
                                bool mutate, bool pin) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return "pipe failed";
  char scale_arg[32];
  std::snprintf(scale_arg, sizeof(scale_arg), "%g", scale);
  std::vector<std::string> args = {binary, "--port", "0", "--scale",
                                   scale_arg};
  if (mutate) args.push_back("--mutate");
  pid_ = fork();
  if (pid_ < 0) return "fork failed";
  if (pid_ == 0) {
    if (pin) PinToServerCpus();
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  std::string out;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, 200) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return "orx_serve exited before listening: " + out;
    out.append(buf, static_cast<size_t>(n));
    const size_t at = out.find("listening on ");
    const size_t eol = at == std::string::npos ? at : out.find('\n', at);
    if (eol != std::string::npos) {
      const std::string line = out.substr(at, eol - at);
      port_ = static_cast<uint16_t>(
          std::atoi(line.substr(line.rfind(':') + 1).c_str()));
      return port_ != 0 ? "" : "cannot parse: " + line;
    }
  }
  return "orx_serve did not start listening within 120 s";
}

void ServeProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(20);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (out_fd_ != -1) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

// --- Host -------------------------------------------------------------------

Host::Host(tools::ServingDataset dataset, Tracer* tracer, bool pin)
    : dataset_(std::move(dataset)) {
  // Every thread the components start inherits this thread's CPUs.
  if (pin) PinToServerCpus();
  service_ = std::make_unique<serve::SearchService>(
      dataset_.snapshot, serve::SearchService::Options{});
  handler_ = std::make_unique<net::ServeHandler>(service_.get());
  log_ = std::make_unique<mutate::DeltaLog>(
      dataset_.dblp->dataset.schema(), mutate::DeltaLog::Options{});
  epochs_ = std::make_unique<mutate::EpochManager>();
  builder_ = std::make_unique<mutate::SnapshotBuilder>(
      service_.get(), log_.get(), epochs_.get(), dataset_.snapshot);
  net::ServeHandler::MutationHooks hooks;
  hooks.log = log_.get();
  hooks.epochs = epochs_.get();
  hooks.builder = builder_.get();
  handler_->set_mutation_hooks(hooks);
  net::ServeHandler* handler = handler_.get();
  server_ = std::make_unique<net::Server>(
      net::ServerOptions{},
      [handler, tracer](net::Frame frame, net::ResponderPtr respond) {
        // Client request ids start at 2^32 (RunClosedLoop); smaller ids
        // come from blocking clients and have no client span to hang on.
        const uint64_t id = frame.header.request_id;
        const uint64_t parent = id >= (uint64_t{1} << 32) ? id : 0;
        ScopedSpan span(tracer, "net.serve_handler", parent, id);
        handler->Handle(std::move(frame), std::move(respond));
      });
  handler_->set_server_stats([this] { return server_->stats(); });
  if (pin) UnpinThisThread();
}

Host::~Host() {
  if (server_ != nullptr) server_->Shutdown();
  if (builder_ != nullptr) builder_->Stop();
}

std::string Host::Start(bool pin) {
  if (pin) PinToServerCpus();
  builder_->Start();
  Status started = server_->Start();
  if (pin) UnpinThisThread();
  return started.ok() ? "" : started.ToString();
}

// --- Load client ------------------------------------------------------------

std::string ConnectClient(net::BlockingClient& client, uint16_t port) {
  Status status;
  for (int attempt = 0; attempt < 50; ++attempt) {
    status = client.Connect("127.0.0.1", port);
    if (status.ok()) return "";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return status.ToString();
}

namespace {

struct Conn {
  int fd = -1;
  std::string in;
  bool busy = false;
  uint64_t id = 0;
  std::string query;
  Clock::time_point sent;
};

bool WellFormed(const net::SearchResponse& r, size_t k) {
  if (r.results.empty() || r.results.size() > k) return false;
  for (size_t i = 1; i < r.results.size(); ++i) {
    if (r.results[i].score > r.results[i - 1].score) return false;
  }
  return true;
}

}  // namespace

ReadResult RunClosedLoop(const ReadPlan& plan) {
  ReadResult out;
  Tracer* tracer = plan.tracer;
  std::vector<Conn> conns(static_cast<size_t>(plan.connections));
  for (Conn& c : conns) {
    auto fd = net::ConnectTcp("127.0.0.1", plan.port);
    if (!fd.ok()) {
      out.first_error = fd.status().ToString();
      ++out.errors;
      for (Conn& o : conns) {
        if (o.fd != -1) close(o.fd);
      }
      return out;
    }
    c.fd = *fd;
  }
  if (plan.pin) PinToClientCpu();
  uint64_t next_id = uint64_t{1} << 32;
  const double cpu0 = ThreadCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.seconds));
  Clock::time_point last = start;

  auto send = [&](Conn& c) {
    c.id = next_id++;
    c.query = plan.next_query();
    c.sent = Clock::now();
    net::SearchRequest request;
    request.query = c.query;
    const std::string frame = net::EncodeFrame(
        net::Op::kSearch, c.id, net::EncodeSearchRequest(request));
    if (!net::WriteAll(c.fd, frame.data(), frame.size()).ok()) {
      ++out.errors;
      out.first_error = "write failed";
      return;
    }
    c.busy = true;
    ++out.sent;
  };

  // Parses complete frames out of c.in; returns false on a broken stream.
  auto consume = [&](Conn& c) -> bool {
    while (c.in.size() >= net::kHeaderSize) {
      auto header = net::DecodeHeader(c.in.data());
      if (!header.ok()) return false;
      const size_t size = net::kHeaderSize + header->payload_size;
      if (c.in.size() < size) return true;
      const std::string payload = c.in.substr(net::kHeaderSize,
                                              header->payload_size);
      const bool ours = header->request_id == c.id && c.busy;
      if (!ours) return false;
      net::SearchResponse response;
      bool ok = false;
      Status error;
      if (header->op == net::Op::kSearch) {
        auto decoded = net::DecodeSearchResponse(payload);
        ok = decoded.ok();
        if (ok) response = std::move(*decoded);
        else error = decoded.status();
      } else if (header->op == net::Op::kError) {
        auto decoded = net::DecodeErrorResponse(payload);
        error = decoded.ok() ? Status(decoded->code, decoded->message)
                             : decoded.status();
      }
      const Clock::time_point done = Clock::now();
      last = done;
      ++out.answered;
      if (tracer != nullptr) {
        tracer->Record({"client.request", c.sent, done, c.id, 0, c.id});
        if (out.raw_frames.size() < 2000) {
          out.raw_frames.push_back(c.in.substr(0, size));
        }
      }
      if (ok) {
        out.samples.push_back({SecondsBetween(c.sent, done),
                               response.total_seconds,
                               static_cast<uint32_t>(size)});
        if (!WellFormed(response, plan.k)) ++out.malformed;
        if (plan.keep && plan.keep(c.query)) {
          out.kept.emplace_back(c.query, std::move(response));
        }
      } else if (error.code() == StatusCode::kUnavailable) {
        ++out.rejected;
      } else {
        ++out.errors;
        if (out.first_error.empty()) {
          out.first_error = c.query + ": " + error.ToString();
        }
      }
      c.in.erase(0, size);
      c.busy = false;
      if (done < end) send(c);
    }
    return true;
  };

  for (Conn& c : conns) send(c);
  std::vector<pollfd> fds(conns.size());
  const Clock::time_point give_up = end + std::chrono::seconds(30);
  while (true) {
    bool busy = false;
    for (const Conn& c : conns) busy |= c.busy;
    if (!busy) break;
    if (Clock::now() > give_up) {
      ++out.errors;
      out.first_error = "answers still missing 30 s after the run";
      break;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].fd, static_cast<short>(conns[i].busy ? POLLIN : 0),
                0};
    }
    if (poll(fds.data(), fds.size(), 100) <= 0) continue;
    for (size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      char buf[1 << 16];
      bool broken = false;
      while (true) {
        const ssize_t n = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          c.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == -1 && errno == EINTR) continue;
        broken = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
      }
      if (!consume(c) || broken) {
        ++out.errors;
        out.first_error = "connection broken";
        c.busy = false;
      }
    }
  }
  out.wall_s = SecondsBetween(start, last);
  out.client_cpu_s = ThreadCpuSeconds() - cpu0;
  if (plan.pin) UnpinThisThread();
  for (Conn& c : conns) close(c.fd);
  return out;
}

}  // namespace orxbench
