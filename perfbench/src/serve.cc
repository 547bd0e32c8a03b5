#include "perfbench/src/serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"

namespace pb {
namespace {

constexpr int kThreads = 2;            // generator threads (one socket per server worker each)
constexpr int kWindow = 32;            // closed-loop queries in flight per socket
constexpr int kBatch = 32;             // sendmmsg / recvmmsg batch
constexpr int kBurst = 64;             // worker-probe burst, below the socket's receive queue
constexpr int64_t kDrainNs = 500'000'000;
constexpr int64_t kWarmupNs = 500'000'000;
// Measured phases are cut into windows of this length; each metric is the
// median over the windows, so a short stall of the host moves one window,
// not the run.
constexpr int64_t kWindowNs = 500'000'000;
constexpr size_t kMaxEpochs = 4096;
// Classification packets count labels from their own base, far above the
// generator threads' range, and the publish watch from twice that.
constexpr uint64_t kProbeCounterBase = uint64_t{1} << 30;
// Zone republish cadence, and how long the watch waits for a publish; the
// next reload waits until the last one was seen. The reload after the
// closed loop may stall for tens of milliseconds on the old shard's release.
constexpr int64_t kCadenceNs = 20'000'000;
constexpr int64_t kWatchNs = 2'000'000'000;
// The publish phase's background traffic, queries/s. At serve-hot's 10000
// q/s, hypervisor stalls of 40 ms or more during this phase overflowed a
// server worker's receive buffer (~200 queries) under heavy steal.
constexpr double kPublishRate = 1000;

// Each serve workload's fixed shape. The open-loop rates were set once,
// below each workload's closed-loop qps on a 4-core host, and do not change.
// The closed loop serves closed_per_s * --seconds queries, about 0.4 of the
// run on that host.
struct Params {
  const char* name;
  Traffic traffic;
  double rate;           // open-loop offered rate, queries/s
  int64_t closed_per_s;  // closed-loop queries per second of --seconds
  bool reloads;          // republishes during the open and closed phases too
};
constexpr Params kParams[] = {
    {"serve-miss", Traffic::kMiss, 5000, 16000, false},
    {"serve-hot", Traffic::kHot, 10000, 128000, false},
    {"serve-reload", Traffic::kHot, 10000, 72000, true},
};

struct Slot {
  int64_t due_ns = 0;
  PacketInfo info;
  uint32_t epoch = 0;
  bool must_new = false;  // the epoch's zone was already observed when this was sent
  bool used = false;
};

struct Sock {
  int fd = -1;
  uint16_t next_id = 0;
  int inflight = 0;
  std::vector<Slot> slots = std::vector<Slot>(65536);
};

// Which zone the server should be on. Reload e publishes zone e % 2
// (0 = kitchen-sink, 1 = the edited copy); first_seen[e] is when an answer
// that only the new zone gives first reached the generator. Each reload
// also writes to wake_fd, an eventfd that wakes the watching generator.
struct Epochs {
  int wake_fd = -1;
  std::atomic<uint32_t> current{0};
  std::vector<std::atomic<int64_t>> issued = std::vector<std::atomic<int64_t>>(kMaxEpochs);
  std::vector<std::atomic<int64_t>> first_seen = std::vector<std::atomic<int64_t>>(kMaxEpochs);
};

struct Counts {
  int64_t sent = 0;
  int64_t closed_correct = 0;  // closed loop: correct answers
  int64_t start_ns = 0;        // the phase's start
  int64_t finish_ns = 0;       // closed loop: when the last answer came back
  std::vector<std::vector<double>> window_rtt_us;  // open loop: RTTs by due window
  int64_t mismatches = 0;
  int64_t timeouts = 0;
  std::vector<double> timeout_due_ms;  // open loop: when timed-out queries were due
  int64_t strays = 0;  // answers to no outstanding query
  std::vector<double> late_us;
  double busy = 0;
  double fill_sum = 0;
  int64_t fill_samples = 0;

  void Add(const Counts& o) {
    sent += o.sent;
    closed_correct += o.closed_correct;
    start_ns = start_ns == 0 ? o.start_ns : std::min(start_ns, o.start_ns);
    finish_ns = std::max(finish_ns, o.finish_ns);
    window_rtt_us.resize(std::max(window_rtt_us.size(), o.window_rtt_us.size()));
    for (size_t i = 0; i < o.window_rtt_us.size(); ++i) {
      window_rtt_us[i].insert(window_rtt_us[i].end(), o.window_rtt_us[i].begin(),
                              o.window_rtt_us[i].end());
    }
    mismatches += o.mismatches;
    timeouts += o.timeouts;
    timeout_due_ms.insert(timeout_due_ms.end(), o.timeout_due_ms.begin(), o.timeout_due_ms.end());
    strays += o.strays;
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    busy = std::max(busy, o.busy);
    fill_sum += o.fill_sum;
    fill_samples += o.fill_samples;
  }
};

enum class Mode { kClosed, kOpen };

class Generator {
 public:
  Generator(const Workload* w, Epochs* epochs, uint64_t seed, int index)
      : w_(w), epochs_(epochs), rng_(seed * 1000003 + static_cast<uint64_t>(index) + 17),
        counter_(index < kThreads ? static_cast<uint64_t>(index) : kProbeCounterBase),
        watch_rng_(seed * 1000003 + 7) {}

  std::vector<Sock>& socks() { return socks_; }
  // The watcher times publishes. In phases with reloads, while the zone of
  // the latest reload has not been seen in any answer, it keeps one watch
  // query in flight on its first socket: a wildcard A question whose answer
  // carries the edited record, sent again as soon as the old answer comes
  // back. It spins rather than sleeps meanwhile, so no wake-up of its own
  // core adds to the time, and so a publish is timed to within one loopback
  // round trip. Watch queries draw on a stream of their own, so the
  // workload's traffic does not depend on how many there were.
  void set_watcher(bool watcher) { watcher_ = watcher; }

  // One phase: closed loop (fixed window, `quota` queries) or open loop
  // (`rate` queries/s from `start`), until `end` at the latest; then waits
  // for stragglers. With `reloads`, the watcher also stays until the last
  // reload was seen, for up to kWatchNs past `end`.
  Counts Run(Mode mode, int64_t start, int64_t end, double rate, int64_t quota, bool reloads) {
    Counts c;
    start_ = start;
    c.start_ns = start;
    size_t windows = static_cast<size_t>(std::max<int64_t>(1, (end - start) / kWindowNs));
    c.window_rtt_us.assign(windows, {});
    const int64_t interval = mode == Mode::kOpen ? static_cast<int64_t>(1e9 / rate) : 0;
    int64_t next_due = start;
    size_t rr = 0;
    int64_t cpu0 = ThreadCpuNs();
    int64_t wall0 = NowNs();
    const bool watching = watcher_ && reloads;
    bool served = false;  // closed loop: the quota is served
    while (true) {
      int64_t now = NowNs();
      bool pending = watching && Pending();
      if (((now >= end || served) && !pending) || now >= end + kWatchNs) {
        break;
      }
      if (pending && !watch_inflight_) {
        Send(&socks_[0], 1, 0, &c, true);
      }
      if (now >= end || served) {
        // Only the watch is left.
      } else if (mode == Mode::kClosed) {
        int inflight = 0;
        for (Sock& s : socks_) {
          Send(&s, static_cast<int>(std::min<int64_t>(kWindow - s.inflight, quota - c.sent)), 0,
               &c);
          inflight += s.inflight;
        }
        served = c.sent >= quota && inflight == 0;
      } else {
        int due = 0;
        while (next_due + interval * due <= now && due < kBatch * static_cast<int>(socks_.size())) {
          ++due;
        }
        // Spread the due packets over the sockets, keeping each one's due time.
        for (int i = 0; i < due; ++i) {
          Sock& s = socks_[rr++ % socks_.size()];
          Send(&s, 1, next_due, &c);
          next_due += interval;
        }
      }
      if (mode == Mode::kClosed) {
        int inflight = 0;
        for (const Sock& s : socks_) {
          inflight += s.inflight;
        }
        c.fill_sum += static_cast<double>(inflight) / (kWindow * static_cast<double>(socks_.size()));
        ++c.fill_samples;
      }
      int got = 0;
      for (Sock& s : socks_) {
        got += Receive(&s, mode, end, &c);
      }
      if (got == 0 && !pending) {
        Wait(mode == Mode::kOpen ? std::max<int64_t>(0, next_due - NowNs()) : 1'000'000,
             watching);
      }
    }
    c.finish_ns = NowNs();
    c.busy = static_cast<double>(ThreadCpuNs() - cpu0) / static_cast<double>(c.finish_ns - wall0);
    Drain(mode, end, &c);
    return c;
  }

  // Sends `n` packets on `s`, all due at `due`; with `watch`, one watch query.
  void Send(Sock* s, int n, int64_t due, Counts* c, bool watch = false) {
    if (n <= 0) {
      return;
    }
    n = std::min(n, kBatch);
    uint32_t epoch = epochs_->current.load(std::memory_order_acquire);
    bool must_new = epochs_->first_seen[epoch].load(std::memory_order_acquire) != 0;
    uint16_t ids[kBatch];
    for (int i = 0; i < n; ++i) {
      uint16_t id = s->next_id++;
      Slot& slot = s->slots[id];
      if (slot.used) {  // a query 65536 sends old never came back
        ++c->timeouts;
        --s->inflight;
      }
      size_t size = watch ? w_->NextPacket(&watch_rng_, 2 * kProbeCounterBase + watch_count_++, id,
                                           bufs_[i], &slot.info, true)
                          : w_->NextPacket(&rng_, counter_, id, bufs_[i], &slot.info);
      counter_ += watch ? 0 : kThreads;
      slot.due_ns = due;
      slot.epoch = epoch;
      slot.must_new = must_new;
      slot.used = true;
      ids[i] = id;
      iovs_[i] = {bufs_[i], size};
      std::memset(&msgs_[i], 0, sizeof(msgs_[i]));
      msgs_[i].msg_hdr.msg_iov = &iovs_[i];
      msgs_[i].msg_hdr.msg_iovlen = 1;
    }
    int sent = ::sendmmsg(s->fd, msgs_, static_cast<unsigned>(n), 0);
    int64_t now = NowNs();
    sent = std::max(sent, 0);
    for (int i = sent; i < n; ++i) {
      s->slots[ids[i]].used = false;  // never left: not a query
    }
    s->inflight += sent;
    c->sent += sent;
    if (watch && sent > 0) {
      watch_id_ = ids[0];
      watch_inflight_ = true;
    }
    if (due != 0) {
      for (int i = 0; i < sent; ++i) {
        c->late_us.push_back(static_cast<double>(now - due) / 1e3);
      }
    }
  }

  int Receive(Sock* s, Mode mode, int64_t end, Counts* c) {
    for (int i = 0; i < kBatch; ++i) {
      riovs_[i] = {rbufs_[i], sizeof(rbufs_[i])};
      std::memset(&rmsgs_[i], 0, sizeof(rmsgs_[i]));
      rmsgs_[i].msg_hdr.msg_iov = &riovs_[i];
      rmsgs_[i].msg_hdr.msg_iovlen = 1;
    }
    int got = ::recvmmsg(s->fd, rmsgs_, kBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) {
      return 0;
    }
    int64_t now = NowNs();
    for (int i = 0; i < got; ++i) {
      size_t size = rmsgs_[i].msg_len;
      if (size < 12) {
        ++c->strays;
        continue;
      }
      uint16_t id = static_cast<uint16_t>(rbufs_[i][0] << 8 | rbufs_[i][1]);
      Slot& slot = s->slots[id];
      if (!slot.used) {
        ++c->strays;
        continue;
      }
      slot.used = false;
      --s->inflight;
      if (s == &socks_[0] && id == watch_id_) {
        watch_inflight_ = false;
      }
      if (Check(slot, rbufs_[i], size, now)) {
        if (mode == Mode::kClosed && now < end) {
          ++c->closed_correct;
        }
      } else {
        ++c->mismatches;
      }
      if (mode == Mode::kOpen && slot.due_ns != 0) {  // not a watch query
        double rtt = static_cast<double>(now - slot.due_ns) / 1e3;
        size_t w = static_cast<size_t>(std::max<int64_t>(0, slot.due_ns - start_) / kWindowNs);
        if (w < c->window_rtt_us.size()) {
          c->window_rtt_us[w].push_back(rtt);
        }
      }
    }
    return got;
  }

  // An answer is correct when it matches the reference of the zone the
  // server was on when the query left, or of the zone a reload issued in
  // between published; once an epoch's zone has been seen, queries sent
  // later must get it.
  bool Check(const Slot& slot, const uint8_t* answer, size_t size, int64_t now) {
    uint32_t e = slot.epoch;
    if (w_->Matches(e % 2, slot.info, answer, size)) {
      if (e > 0 && !w_->Matches((e + 1) % 2, slot.info, answer, size)) {
        int64_t zero = 0;
        epochs_->first_seen[e].compare_exchange_strong(zero, now);
      }
      return true;
    }
    if (e > 0 && !slot.must_new && w_->Matches((e + 1) % 2, slot.info, answer, size)) {
      return true;  // sent before the new zone was live
    }
    if (epochs_->current.load(std::memory_order_acquire) > e &&
        w_->Matches((e + 1) % 2, slot.info, answer, size)) {
      int64_t zero = 0;
      epochs_->first_seen[e + 1].compare_exchange_strong(zero, now);
      return true;  // a later reload was already live
    }
    return false;
  }

  // Sleeps until an answer arrives or `ns` passes; with `for_reload`, also
  // until the next reload is issued.
  void Wait(int64_t ns, bool for_reload = false) {
    pollfd fds[8];
    size_t n = 0;
    for (const Sock& s : socks_) {
      fds[n++] = {s.fd, POLLIN, 0};
    }
    if (for_reload) {
      fds[n++] = {epochs_->wake_fd, POLLIN, 0};
    }
    timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
    if (::ppoll(fds, n, &ts, nullptr) > 0 && for_reload && fds[n - 1].revents != 0) {
      uint64_t count;
      [[maybe_unused]] ssize_t r = ::read(epochs_->wake_fd, &count, sizeof(count));
    }
  }

  void Drain(Mode mode, int64_t end, Counts* c) {
    int64_t deadline = NowNs() + kDrainNs;
    while (NowNs() < deadline) {
      int inflight = 0;
      for (Sock& s : socks_) {
        Receive(&s, mode, end, c);
        inflight += s.inflight;
      }
      if (inflight == 0) {
        return;
      }
      Wait(1'000'000);
    }
    for (Sock& s : socks_) {
      for (Slot& slot : s.slots) {
        if (slot.used) {
          slot.used = false;
          ++c->timeouts;
          if (slot.due_ns != 0) {
            c->timeout_due_ms.push_back(static_cast<double>(slot.due_ns - start_) / 1e6);
          }
        }
      }
      s.inflight = 0;
    }
    watch_inflight_ = false;
  }

 private:
  const Workload* w_;
  Epochs* epochs_;
  Rng rng_;
  uint64_t counter_;
  Rng watch_rng_;
  uint64_t watch_count_ = 0;
  bool watcher_ = false;
  bool watch_inflight_ = false;
  uint16_t watch_id_ = 0;
  int64_t start_ = 0;  // the current phase's start

  // Whether the latest reload's zone has yet to show in an answer.
  bool Pending() const {
    uint32_t e = epochs_->current.load(std::memory_order_acquire);
    return e > 0 && epochs_->first_seen[e].load(std::memory_order_acquire) == 0;
  }
  std::vector<Sock> socks_;
  uint8_t bufs_[kBatch][512];
  iovec iovs_[kBatch];
  mmsghdr msgs_[kBatch];
  uint8_t rbufs_[kBatch][4096];
  iovec riovs_[kBatch];
  mmsghdr rmsgs_[kBatch];
};

int OpenSocket(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void PinThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Whether `candidate` reaches the same server worker as `reference`. The
// kernel spreads SO_REUSEPORT sockets by a keyed hash of the client address,
// so the generator finds out: a burst of uncached queries on `reference`
// queues on its worker, and one query on `candidate` comes back behind the
// burst only when it joined the same queue.
int SameWorker(Generator* gen, Sock* reference, Sock* candidate, Counts* c) {
  gen->Send(reference, kBurst / 2, 0, c);
  gen->Send(reference, kBurst / 2, 0, c);
  gen->Send(candidate, 1, 0, c);
  int before = 0;  // burst answers that arrived before the candidate's
  int64_t deadline = NowNs() + 2'000'000'000;
  bool candidate_done = false;
  while ((reference->inflight > 0 || candidate->inflight > 0) && NowNs() < deadline) {
    int ref_got = gen->Receive(reference, Mode::kOpen, 0, c);
    if (!candidate_done) {
      before += ref_got;
      if (gen->Receive(candidate, Mode::kOpen, 0, c) > 0) {
        candidate_done = true;
      }
    }
    if (ref_got == 0) {
      gen->Wait(200'000);
    }
  }
  if (reference->inflight > 0 || candidate->inflight > 0) {
    return -1;
  }
  if (before >= kBurst * 3 / 4) {
    return 1;
  }
  return before <= kBurst / 4 ? 0 : -1;
}

// Opens two sockets per server worker, so each generator thread drives both
// workers equally whatever the kernel's hash does.
bool ClassifySockets(uint16_t port, Generator* probe, std::vector<int>* fds_a,
                     std::vector<int>* fds_b, Counts* c) {
  std::vector<Sock>& socks = probe->socks();
  socks.resize(2);
  socks[0].fd = OpenSocket(port);
  fds_a->push_back(socks[0].fd);
  for (int attempt = 0; attempt < 64 && (fds_a->size() < 2 || fds_b->size() < 2); ++attempt) {
    socks[1] = Sock();
    socks[1].fd = OpenSocket(port);
    int same = SameWorker(probe, &socks[0], &socks[1], c);
    if (same == 1 && fds_a->size() < 2) {
      fds_a->push_back(socks[1].fd);
    } else if (same == 0 && fds_b->size() < 2) {
      fds_b->push_back(socks[1].fd);
    } else {
      ::close(socks[1].fd);
    }
  }
  socks.clear();
  return fds_a->size() == 2 && fds_b->size() == 2;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The server's stats lines (SIGUSR1 writes one JSON object per line).
std::vector<std::string> StatsLines(const std::string& log) {
  std::vector<std::string> lines;
  std::istringstream in(ReadFile(log));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"generation\"", 0) == 0) {
      lines.push_back(line);
    }
  }
  return lines;
}

double Field(const std::string& json, const std::string& name) {
  size_t at = json.find("\"" + name + "\": ");
  return at == std::string::npos ? -1 : std::strtod(json.c_str() + at + name.size() + 4, nullptr);
}

// Asks the server for its Stats() (SIGUSR1) and waits for the line.
std::string Snapshot(const ServeArgs& args) {
  size_t before = StatsLines(args.server_log).size();
  ::kill(args.server_pid, SIGUSR1);
  int64_t deadline = NowNs() + 3'000'000'000;
  while (NowNs() < deadline) {
    std::vector<std::string> lines = StatsLines(args.server_log);
    if (lines.size() > before) {
      return lines.back();
    }
    ::usleep(1000);
  }
  return "";
}

bool WriteZone(const std::string& path, const std::string& text) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << text;
    if (!out) {
      return false;
    }
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// Republishes the zone through the operator's path: rewrite the zone file,
// then SIGHUP. The watching generator thread times each publish.
class Publisher {
 public:
  Publisher(const ServeArgs& args, Epochs* epochs)
      : args_(args), epochs_(epochs), texts_{ReadFile(args.zone), ReadFile(args.edited)} {}

  int unobserved() const { return unobserved_; }

  // Issues the next reload and waits until the new zone answers, for up to
  // kWatchNs. Returns the reload's epoch, or 0 when none was issued.
  uint32_t Publish() {
    uint32_t e = epochs_->current.load() + 1;
    if (e >= kMaxEpochs) {
      return 0;
    }
    if (e > 1 && epochs_->first_seen[e - 1].load() == 0) {
      ++unobserved_;
    }
    if (!WriteZone(args_.live_zone, texts_[e % 2])) {
      ++unobserved_;
      return 0;
    }
    int64_t issued = NowNs();
    epochs_->issued[e].store(issued);
    epochs_->current.store(e, std::memory_order_release);
    ::kill(args_.server_pid, SIGHUP);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t w = ::write(epochs_->wake_fd, &one, sizeof(one));
    while (epochs_->first_seen[e].load() == 0 && NowNs() < issued + kWatchNs) {
      ::usleep(200);
    }
    return e;
  }

  // Publishes every kCadenceNs from `start` to `end`, while `running`; a
  // publish that took longer than the cadence delays the next one. Returns
  // the epochs issued.
  std::vector<uint32_t> Loop(int64_t start, int64_t end, const std::atomic<int>& running) {
    std::vector<uint32_t> issued;
    for (int64_t t = start + kCadenceNs / 2; t + kCadenceNs / 2 <= end && running.load();
         t = std::max(t + kCadenceNs, NowNs())) {
      timespec ts{static_cast<time_t>(t / 1'000'000'000), static_cast<long>(t % 1'000'000'000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      if (uint32_t e = Publish()) {
        issued.push_back(e);
      }
    }
    return issued;
  }

 private:
  const ServeArgs& args_;
  Epochs* epochs_;
  int unobserved_ = 0;
  const std::string texts_[2];
};

// CPU seconds the process's threads have run so far, from each thread's
// /proc/<pid>/task/<tid>/schedstat (nanoseconds on the CPU).
double ProcessCpuSeconds(pid_t pid) {
  std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  double ns = 0;
  std::error_code error;
  for (const auto& task : std::filesystem::directory_iterator(tasks, error)) {
    ns += std::strtod(ReadFile(task.path().string() + "/schedstat").c_str(), nullptr);
  }
  return ns / 1e9;
}

}  // namespace

bool RunServe(const ServeArgs& args, Record* record) {
  const Params* params = nullptr;
  for (const Params& p : kParams) {
    if (args.workload == p.name) {
      params = &p;
    }
  }
  if (params == nullptr) {
    std::fprintf(stderr, "unknown serve workload %s\n", args.workload.c_str());
    return false;
  }
  const Traffic traffic = params->traffic;
  const bool reload_workload = params->reloads;
  std::vector<dnsv::ZoneConfig> zones;
  for (const std::string& path : {args.zone, args.edited}) {
    dnsv::Result<dnsv::ZoneConfig> zone = LoadZone(path);
    if (!zone.ok()) {
      std::fprintf(stderr, "%s\n", zone.error().c_str());
      return false;
    }
    zones.push_back(std::move(zone).value());
  }

  int64_t t0 = NowNs();
  dnsv::Result<Workload> made = Workload::Make(traffic, args.seed, zones);
  dnsv::Result<Workload> probe_made =
      traffic == Traffic::kMiss ? dnsv::Result<Workload>::Error("unused")
                                : Workload::Make(Traffic::kMiss, args.seed, {zones[0]});
  if (!made.ok() || (traffic != Traffic::kMiss && !probe_made.ok())) {
    std::fprintf(stderr, "workload: %s\n",
                 (made.ok() ? probe_made.error() : made.error()).c_str());
    return false;
  }
  const Workload& w = made.value();
  const Workload& miss = traffic == Traffic::kMiss ? w : probe_made.value();
  record->info["oracle_s"] = std::to_string(static_cast<double>(NowNs() - t0) / 1e9);

  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  Epochs epochs;
  Counts total;
  std::vector<int> fds_a, fds_b;
  {
    PinThread(args.cpus.at(0));
    Generator probe(&miss, &epochs, args.seed, kThreads);
    Counts c;
    bool ok = ClassifySockets(args.port, &probe, &fds_a, &fds_b, &c);
    total.Add(c);
    record->info["phase.classify"] = "sent " + std::to_string(c.sent) + ", timeouts " +
                                     std::to_string(c.timeouts);
    if (!ok) {
      std::fprintf(stderr, "could not place two sockets on each of two server workers\n");
      return false;
    }
  }
  std::vector<std::unique_ptr<Generator>> gens;
  for (int t = 0; t < kThreads; ++t) {
    gens.push_back(std::make_unique<Generator>(&w, &epochs, args.seed, t));
    gens[t]->socks().resize(2);
    gens[t]->socks()[0].fd = fds_a[t];
    gens[t]->socks()[1].fd = fds_b[t];
  }
  gens[0]->set_watcher(true);
  epochs.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epochs.wake_fd < 0) {
    std::fprintf(stderr, "eventfd: %s\n", std::strerror(errno));
    return false;
  }
  Publisher publisher(args, &epochs);

  // Runs one phase on every generator thread (plus the reload loop when
  // `reloads`) and returns the merged counts.
  std::vector<uint32_t> measured_epochs;
  auto phase = [&](const char* name, Mode mode, double seconds, double rate, bool reloads,
                   bool publish_samples, int64_t quota = 0) {
    int64_t start = NowNs() + 20'000'000;
    int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<Counts> counts(kThreads);
    std::vector<std::thread> threads;
    std::atomic<int> running{kThreads};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        PinThread(args.cpus[static_cast<size_t>(t) % args.cpus.size()]);
        timespec ts{static_cast<time_t>(start / 1'000'000'000),
                    static_cast<long>(start % 1'000'000'000)};
        clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
        counts[t] = gens[t]->Run(mode, start, end, rate / kThreads, quota / kThreads, reloads);
        --running;
      });
    }
    std::vector<uint32_t> issued;
    if (reloads) {
      issued = publisher.Loop(start, end, running);
    }
    for (std::thread& th : threads) {
      th.join();
    }
    if (publish_samples) {
      measured_epochs.insert(measured_epochs.end(), issued.begin(), issued.end());
    }
    record->attempted += static_cast<int64_t>(issued.size());
    Counts merged;
    for (const Counts& c : counts) {
      merged.Add(c);
    }
    total.Add(merged);
    record->info[std::string("phase.") + name] =
        "sent " + std::to_string(merged.sent) + ", timeouts " + std::to_string(merged.timeouts) +
        ", mismatches " + std::to_string(merged.mismatches) + ", reloads " +
        std::to_string(issued.size());
    if (!merged.timeout_due_ms.empty()) {
      auto [first, last] =
          std::minmax_element(merged.timeout_due_ms.begin(), merged.timeout_due_ms.end());
      record->info[std::string("phase.") + name] += ", timed-out queries due " +
                                                    std::to_string(*first) + " to " +
                                                    std::to_string(*last) + " ms into the phase";
    }
    return merged;
  };

  // Phases at the fixed rate come first, so the server is in the same state
  // on every run when they start; the closed loop, whose query count is
  // fixed but whose length varies with the host, runs last. The publish
  // phase runs on fresh shards: a shard keeps every label it has interned,
  // and replacing one that served ~10^5 fresh names stalls its worker for
  // tens of milliseconds. The late publish after the closed loop times that
  // stall; it is recorded, not gated (see perfbench/README.md).
  const double s = args.seconds;
  phase("warmup", Mode::kOpen, kWarmupNs / 1e9, params->rate, false, false);
  std::string before_publish = Snapshot(args);
  Counts publish = phase("publish", Mode::kOpen, 0.2 * s, kPublishRate, true, true);
  phase("rewarm", Mode::kOpen, kWarmupNs / 1e9, params->rate, false, false);
  std::string warm = Snapshot(args);
  Counts open =
      phase("open", Mode::kOpen, 0.4 * s, params->rate, reload_workload, reload_workload);
  // The closed loop serves a fixed number of queries, so every run leaves
  // the server with the same work done (and, on serve-miss, the same number
  // of interned labels); it may take up to four times its nominal length.
  // Its figure is the server's CPU time, which the generator cannot cap.
  double cpu0 = ProcessCpuSeconds(args.server_pid);
  Counts closed = phase("closed", Mode::kClosed, 4 * 0.4 * s, 0, reload_workload, false,
                        static_cast<int64_t>(static_cast<double>(params->closed_per_s) * s));
  double server_cpu_s = ProcessCpuSeconds(args.server_pid) - cpu0;
  std::string after_closed = Snapshot(args);
  const uint32_t reloads_measured = epochs.current.load();
  phase("late", Mode::kOpen, kCadenceNs / 1e9, kPublishRate, true, false);
  uint32_t late = epochs.current.load();
  if (late > reloads_measured && epochs.first_seen[late].load() != 0) {
    int64_t late_ns = epochs.first_seen[late].load() - epochs.issued[late].load();
    record->info["late_update_ms"] = std::to_string(static_cast<double>(late_ns) / 1e6);
  }
  for (Generator* g : {gens[0].get(), gens[1].get()}) {
    for (Sock& sock : g->socks()) {
      ::close(sock.fd);
    }
  }
  ::close(epochs.wake_fd);
  int unobserved = publisher.unobserved();
  if (epochs.current.load() > 0 && epochs.first_seen[epochs.current.load()].load() == 0) {
    ++unobserved;
  }

  // Failure accounting: every query is an op, and so is every reload.
  record->attempted += total.sent;
  record->Fail("timeout", total.timeouts);
  record->Fail("answer differs from the reference", total.mismatches);
  record->Fail("answer to no outstanding query", total.strays);
  record->Fail("reload never observed in the answers", unobserved);
  record->info["queries_sent"] = std::to_string(total.sent);

  std::vector<double> publish_ms;
  for (uint32_t e : measured_epochs) {
    int64_t seen = epochs.first_seen[e].load();
    if (seen != 0) {
      publish_ms.push_back(static_cast<double>(seen - epochs.issued[e].load()) / 1e6);
    }
  }
  std::vector<double> window_p50, window_p90, window_p99;
  for (const std::vector<double>& rtts : open.window_rtt_us) {
    window_p50.push_back(Percentile(rtts, 0.50) / 1e3);
    window_p90.push_back(Percentile(rtts, 0.90) / 1e3);
    window_p99.push_back(Percentile(rtts, 0.99) / 1e3);
  }
  record->info["window_p50_ms"] = JoinValues(window_p50);
  record->info["window_p90_ms"] = JoinValues(window_p90);
  record->info["window_p99_ms"] = JoinValues(window_p99);
  // The tails are recorded, not gated: on a shared host they move with
  // preemption far more than with the program (perfbench/README.md).
  record->info["rtt_p90_ms"] = std::to_string(Median(window_p90));
  record->info["rtt_p99_ms"] = std::to_string(Median(window_p99));

  double closed_seconds = static_cast<double>(closed.finish_ns - closed.start_ns) / 1e9;
  record->metrics["ops_per_s"] = static_cast<double>(closed.closed_correct) / server_cpu_s;
  record->info["closed_seconds"] = std::to_string(closed_seconds);
  record->info["closed_server_cpu_s"] = std::to_string(server_cpu_s);
  record->info["closed_qps"] =
      std::to_string(static_cast<double>(closed.closed_correct) / closed_seconds);
  record->metrics["op_p50_ms"] = Median(window_p50);
  // Stolen host time and wake-up delays add to most publishes, and on a
  // shared host they doubled the median from one run to the next; the 10th
  // percentile moved by a fifth. The program's own reload work adds to
  // every publish, so it moves the 10th percentile as much as the median.
  record->metrics["update_ms"] = Percentile(publish_ms, 0.10);
  record->info["publish_p50_ms"] = std::to_string(Median(publish_ms));
  size_t rtt_samples = 0;
  for (const std::vector<double>& rtts : open.window_rtt_us) {
    rtt_samples += rtts.size();
  }
  record->info["rtt_samples"] = std::to_string(rtt_samples);
  record->info["publish_samples"] = std::to_string(publish_ms.size());
  record->info["publish_ms"] = JoinValues(publish_ms);

  // Generator validity: the server, not the generator, must be the bottleneck.
  double late_p99 = Percentile(open.late_us, 0.99);
  double busy = std::max({closed.busy, open.busy, publish.busy});
  double fill = closed.fill_samples ? closed.fill_sum / static_cast<double>(closed.fill_samples) : 0;
  record->metrics["loadgen.late_p99_us"] = late_p99;
  record->metrics["loadgen.busy_frac"] = busy;
  record->info["loadgen.closed_busy_frac"] = std::to_string(closed.busy);
  record->info["loadgen.window_fill"] = std::to_string(fill);
  // ops_per_s divides by the server's CPU time, so a saturated generator
  // does not cap it; closed_qps, the wall-clock rate, it does.
  record->info["valid"] = "true";
  if (closed.busy > 0.9) {
    record->Invalidate("generator thread saturated in the closed loop, so closed_qps is the "
                       "generator's");
  }
  if (fill < 0.5) {
    record->Invalidate("closed-loop window less than half full");
  }
  if (late_p99 > 1000) {
    record->Invalidate("open-loop sends ran more than 1 ms late");
  }

  // Per-layer counters from the server's own Stats().
  auto delta = [](const std::string& a, const std::string& b, const char* name) {
    return Field(b, name) - Field(a, name);
  };
  if (before_publish.empty() || warm.empty() || after_closed.empty()) {
    record->Fail("server stats snapshot missing");
  } else {
    double hits = delta(warm, after_closed, "cache_hits");
    double misses = delta(warm, after_closed, "cache_misses");
    record->metrics["server.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
    record->info["server.cache_probes"] = std::to_string(static_cast<int64_t>(hits + misses));
    // Every reload but the late one falls between these two snapshots.
    double reloads = std::max(1.0, static_cast<double>(reloads_measured));
    record->metrics["server.cache_stale"] =
        delta(before_publish, after_closed, "cache_stale") / reloads;
    record->metrics["server.shard_rebuilds"] =
        delta(before_publish, after_closed, "shard_rebuilds") / reloads;
    record->info["reloads"] = std::to_string(reloads_measured);
    record->info["server_generation"] = std::to_string(Field(after_closed, "generation"));
  }

  if (args.trace) {
    // The replay reloads as often, in packets, as the live run does.
    int reload_every = reload_workload ? static_cast<int>(params->rate * kCadenceNs / 1e9) : 0;
    if (!TraceServe(w, miss, zones, reload_every, args.seed, args.spans, record)) {
      return false;
    }
    double serve_us = record->metrics["server.serve_packet_ns"] / 1e3;
    record->metrics["server.transport_us"] = record->metrics["op_p50_ms"] * 1e3 - serve_us;
  }
  return true;
}

}  // namespace pb
