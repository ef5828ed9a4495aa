// servebench_host: the native half of the serving benchmark (run.py is the
// orchestrator). One binary, four subcommands:
//
//   servebench_host gen   --workload W --seed S --seconds T
//       Generate the workload and print its size and a digest of every
//       request byte (the same seed must give the same digest).
//
//   servebench_host drive --port P --workload W --seed S --seconds T
//                         --phase warmup|measure [--out FILE]
//       Send one phase of the workload to a running server over at most
//       four keep-alive connections, open loop (Poisson due times from the
//       seed, latency timed from the due time) or closed loop (four
//       clients back to back). Writes one TSV line per request:
//       idx, status, due_ns, send_ns, recv_ns, response body.
//
//   servebench_host check --workload W --seed S --seconds T --results FILE
//                         (--profile F | --profiles a=F,b=G)
//       Re-solve every fresh 2xx answer standalone (isolated SolveBatch
//       under the platform the answer names) and compare cost and bins;
//       check every re-sent id came back as a duplicate with the original
//       cost. Prints one JSON line of verdicts and deterministic counters.
//
//   servebench_host host  [the serve flags the workload uses]
//                         --workload W --seed S --seconds T
//                         --results FILE --spans FILE
//       Traced in-process host: wires ProfileRegistry, SubmissionJournal,
//       StreamingEngine and SladeServer the way `slade_cli serve` does,
//       with the journal behind a timing DurabilityHooks decorator.
//       SIGUSR1 marks the start of the measured phase, SIGTERM its end.
//       After shutdown it replays the measured requests through each
//       layer's public functions, writes the spans and prints one JSON
//       line of per-layer metrics.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "binmodel/task.h"
#include "durability/journal.h"
#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "engine/profile_registry.h"
#include "engine/streaming_engine.h"
#include "io/model_io.h"
#include "server/http_parser.h"
#include "server/json.h"
#include "server/slade_server.h"

namespace {

using namespace slade;
using Clock = std::chrono::steady_clock;
using Flags = std::map<std::string, std::string>;

int Fail(const std::string& message) {
  std::cerr << "servebench_host: " << message << "\n";
  return 1;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workload generation. Everything derives from the seed through SplitMix64,
// whose output is fixed by its definition, so the same seed gives the same
// request bytes on every platform.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

struct Submission {
  std::string tenant;
  std::string submission_id;  ///< empty = anonymous
  std::string body;           ///< the JSON request body
  size_t atomic = 0;
  int64_t dup_of = -1;   ///< measured index whose id this re-sends
  double due_s = 0.0;    ///< open loop: offset from the phase start
};

struct Workload {
  bool open_loop = true;
  double rate = 0.0;  ///< offered submissions per second (open loop)
  std::vector<Submission> warmup;
  std::vector<Submission> measure;
};

// Closed-loop bulk submissions per requested second. Fixed, so one seed
// always produces the same requests; the measured time is what varies.
constexpr double kBulkPerSecond = 120.0;
constexpr double kSteadyRate = 150.0;
constexpr double kDurableRate = 200.0;
const char* const kTenants[] = {"gold", "silver", "bronze", "free"};

std::string Body(const std::string& requester, const std::string& id,
                 const std::vector<std::vector<std::string>>& tasks) {
  std::string body = "{\"requester\":\"" + requester + "\"";
  if (!id.empty()) body += ",\"submission_id\":\"" + id + "\"";
  body += ",\"tasks\":[";
  for (size_t k = 0; k < tasks.size(); ++k) {
    if (k > 0) body += ',';
    body += '[';
    for (size_t i = 0; i < tasks[k].size(); ++i) {
      if (i > 0) body += ',';
      body += tasks[k][i];
    }
    body += ']';
  }
  body += "]}";
  return body;
}

Submission MakeSubmission(std::string tenant, std::string id,
                          std::vector<std::vector<std::string>> tasks) {
  Submission s;
  for (const auto& t : tasks) s.atomic += t.size();
  s.body = Body(tenant, id, tasks);
  s.tenant = std::move(tenant);
  s.submission_id = std::move(id);
  return s;
}

std::vector<std::string> Grid(int lo_hundredths, int hi_hundredths,
                              int step) {
  std::vector<std::string> grid;
  char buf[16];
  for (int v = lo_hundredths; v <= hi_hundredths; v += step) {
    std::snprintf(buf, sizeof(buf), "0.%02d", v);
    grid.push_back(buf);
  }
  return grid;
}

/// Open-loop due times: a Poisson process of `rate` over [0, seconds)
/// conditioned on its expected count, i.e. that many sorted uniform times.
/// Fixing the count keeps the offered work of a run from varying by seed.
std::vector<double> Arrivals(Rng* rng, double rate, double seconds) {
  std::vector<double> due(static_cast<size_t>(std::llround(rate * seconds)));
  for (double& t : due) t = rng->Uniform() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

std::vector<std::vector<std::string>> GridTasks(
    Rng* rng, const std::vector<std::string>& grid, uint64_t max_tasks,
    uint64_t min_atomic, uint64_t max_atomic) {
  std::vector<std::vector<std::string>> tasks(1 + rng->Below(max_tasks));
  for (auto& task : tasks) {
    const uint64_t n = min_atomic + rng->Below(max_atomic - min_atomic + 1);
    for (uint64_t i = 0; i < n; ++i) {
      task.push_back(grid[rng->Below(grid.size())]);
    }
  }
  return tasks;
}

// small-steady: one requester, 1-3 tasks of 1-4 atomic tasks on a
// ten-value threshold grid; the warm-up builds every OPQ the grid needs.
Workload SmallSteady(uint64_t seed, double seconds, bool measure) {
  Workload w;
  w.open_loop = true;
  w.rate = kSteadyRate;
  const std::vector<std::string> grid = Grid(80, 98, 2);
  Rng rng(seed * 3 + 1);
  std::vector<std::vector<std::string>> cover;
  for (const std::string& g : grid) cover.push_back({grid.front(), g});
  w.warmup.push_back(MakeSubmission("steady", "", cover));
  for (int i = 0; i < 30; ++i) {
    w.warmup.push_back(
        MakeSubmission("steady", "", GridTasks(&rng, grid, 3, 1, 4)));
  }
  if (!measure) return w;
  for (double t : Arrivals(&rng, w.rate, seconds)) {
    Submission s =
        MakeSubmission("steady", "", GridTasks(&rng, grid, 3, 1, 4));
    s.due_s = t;
    w.measure.push_back(std::move(s));
  }
  return w;
}

// bulk-cold: 8 tasks of 300-700 atomic tasks, thresholds continuous in
// [0.90, 0.9999] (nine decimals). Each task's top threshold is unique
// across the run, so its top OPQ group never repeats and the bounded cache
// keeps building all run.
Workload BulkCold(uint64_t seed, double seconds, bool measure) {
  Workload w;
  w.open_loop = false;
  Rng rng(seed * 3 + 2);
  std::vector<bool> used_top(900001, false);
  auto make = [&](size_t i) {
    std::vector<std::vector<std::string>> tasks(8);
    char buf[24];
    for (auto& task : tasks) {
      uint64_t top = 0;
      do {
        top = rng.Below(900001);
      } while (used_top[top]);
      used_top[top] = true;
      const uint64_t hi = 999000000 + top;         // 0.999 .. 0.9999
      const uint64_t lo = 900000000 + rng.Below(30000001);  // 0.90 .. 0.93
      const uint64_t n = 300 + rng.Below(401);
      for (uint64_t k = 0; k < n; ++k) {
        const uint64_t v = k == 0 ? hi : lo + rng.Below(hi - lo + 1);
        std::snprintf(buf, sizeof(buf), "0.%09llu",
                      static_cast<unsigned long long>(v));
        task.push_back(buf);
      }
    }
    return MakeSubmission("bulk-" + std::to_string(i % 4), "", tasks);
  };
  for (size_t i = 0; i < 8; ++i) w.warmup.push_back(make(i));
  const size_t n = static_cast<size_t>(std::llround(kBulkPerSecond * seconds));
  for (size_t i = 0; measure && i < std::max<size_t>(n, 1); ++i) {
    w.measure.push_back(make(i));
  }
  return w;
}

// durable-tenants: four weighted tenants, 1-4 tasks of 5-40 atomic tasks
// on a 14-value grid, and about one request in five re-sending the id of
// a request that was due at least a second earlier (acked by then).
Workload DurableTenants(uint64_t seed, double seconds, bool measure) {
  Workload w;
  w.open_loop = true;
  w.rate = kDurableRate;
  const std::vector<std::string> grid = Grid(70, 96, 2);
  Rng rng(seed * 3 + 3);
  const std::string prefix = "s" + std::to_string(seed);
  // A short warm-up: each request pays two fsyncs, the noisiest part of
  // set-up, and 16 already build nearly every OPQ the grid needs.
  for (int i = 0; i < 16; ++i) {
    w.warmup.push_back(MakeSubmission(
        kTenants[i % 4], prefix + "-w" + std::to_string(i),
        GridTasks(&rng, grid, 4, 5, 40)));
  }
  std::vector<size_t> fresh;  // measured indices of fresh requests
  if (!measure) return w;
  for (double t : Arrivals(&rng, w.rate, seconds)) {
    size_t eligible = 0;
    while (eligible < fresh.size() &&
           w.measure[fresh[eligible]].due_s <= t - 1.0) {
      ++eligible;
    }
    Submission s;
    if (rng.Uniform() < 0.2 && eligible > 0) {
      const size_t j = fresh[rng.Below(eligible)];
      s = w.measure[j];
      s.dup_of = static_cast<int64_t>(j);
    } else {
      const size_t i = w.measure.size();
      s = MakeSubmission(kTenants[rng.Below(4)],
                         prefix + "-" + std::to_string(i),
                         GridTasks(&rng, grid, 4, 5, 40));
      fresh.push_back(i);
    }
    s.due_s = t;
    w.measure.push_back(std::move(s));
  }
  return w;
}

/// `measure = false` stops after the warm-up requests (they come first in
/// the seed's stream, so they are the same either way).
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              double seconds, bool measure = true) {
  if (name == "small-steady") return SmallSteady(seed, seconds, measure);
  if (name == "bulk-cold") return BulkCold(seed, seconds, measure);
  if (name == "durable-tenants") {
    return DurableTenants(seed, seconds, measure);
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

std::string RenderRequest(const Submission& s) {
  return "POST /v1/submit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(s.body.size()) + "\r\n\r\n" + s.body;
}

// ---------------------------------------------------------------------------
// Flags shared by the subcommands.

std::optional<Flags> ParseFlags(int argc, char** argv, int start) {
  Flags flags;
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return std::nullopt;
    key = key.substr(2);
    if (key == "fairness") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  return flags;
}

std::string Get(const Flags& flags, const std::string& key,
                const std::string& fallback = {}) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

struct Common {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
};

Result<Common> ParseCommon(const Flags& flags) {
  Common c;
  c.workload = Get(flags, "workload");
  c.seed = std::stoull(Get(flags, "seed", "1"));
  c.seconds = std::stod(Get(flags, "seconds", "10"));
  if (c.workload.empty() || !(c.seconds > 0.0)) {
    return Status::InvalidArgument("need --workload and --seconds > 0");
  }
  return c;
}

// ---------------------------------------------------------------------------
// Results file: one line per measured request.

struct Record {
  size_t idx = 0;
  int status = 0;  ///< 0 = transport failure
  int64_t due_ns = 0, send_ns = 0, recv_ns = 0;
  std::string body;
};

Result<std::vector<Record>> ReadResults(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<Record> records;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Record r;
    fields >> r.idx >> r.status >> r.due_ns >> r.send_ns >> r.recv_ns;
    fields.get();  // the tab before the body
    std::getline(fields, r.body);
    if (!fields && !fields.eof()) {
      return Status::IOError("malformed results line: " + line);
    }
    records.push_back(std::move(r));
  }
  return records;
}

/// The fields of a 2xx /v1/submit answer.
struct Answer {
  bool duplicate = false;
  double cost = 0.0;
  uint64_t bins = 0;
  uint64_t atomic = 0;
  uint64_t flush_id = 0;
  double latency_seconds = 0.0;
  std::string platform;
  uint64_t epoch = 0;
};

Result<Answer> ParseAnswer(const std::string& body) {
  SLADE_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(body));
  Answer a;
  const JsonValue* dup = doc.Find("duplicate");
  const JsonValue* cost = doc.Find("cost");
  const JsonValue* bins = doc.Find("bins_posted");
  const JsonValue* atomic = doc.Find("num_atomic_tasks");
  const JsonValue* flush = doc.Find("flush_id");
  const JsonValue* latency = doc.Find("latency_seconds");
  if (dup == nullptr || cost == nullptr || bins == nullptr ||
      atomic == nullptr || flush == nullptr || latency == nullptr ||
      !cost->is_number() || !bins->is_number()) {
    return Status::InvalidArgument("answer lacks plan fields: " + body);
  }
  a.duplicate = dup->is_bool() && dup->boolean;
  a.cost = cost->number;
  a.bins = static_cast<uint64_t>(bins->number);
  a.atomic = static_cast<uint64_t>(atomic->number);
  a.flush_id = static_cast<uint64_t>(flush->number);
  a.latency_seconds = latency->number;
  if (const JsonValue* p = doc.Find("platform"); p && p->is_string()) {
    a.platform = p->string;
  }
  if (const JsonValue* e = doc.Find("epoch"); e && e->is_number()) {
    a.epoch = static_cast<uint64_t>(e->number);
  }
  return a;
}

/// Decodes a request body the way the server's submit handler does.
Result<std::vector<CrowdsourcingTask>> DecodeTasks(const std::string& body) {
  SLADE_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(body));
  const JsonValue* tasks_json = doc.Find("tasks");
  if (tasks_json == nullptr || !tasks_json->is_array()) {
    return Status::InvalidArgument("request without tasks");
  }
  std::vector<CrowdsourcingTask> tasks;
  for (const JsonValue& task_json : tasks_json->items) {
    std::vector<double> thresholds;
    for (const JsonValue& t : task_json.items) thresholds.push_back(t.number);
    SLADE_ASSIGN_OR_RETURN(CrowdsourcingTask task,
                           CrowdsourcingTask::FromThresholds(thresholds));
    tasks.push_back(std::move(task));
  }
  return tasks;
}

// ---------------------------------------------------------------------------
// gen

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001B3ULL;
  return h;
}

int CmdGen(const Flags& flags) {
  auto common = ParseCommon(flags);
  if (!common.ok()) return Fail(common.status().ToString());
  auto w = MakeWorkload(common->workload, common->seed, common->seconds);
  if (!w.ok()) return Fail(w.status().ToString());
  uint64_t h = 0xCBF29CE484222325ULL;
  size_t bytes = 0;
  for (const auto* phase : {&w->warmup, &w->measure}) {
    for (const Submission& s : *phase) {
      const std::string raw = RenderRequest(s);
      char due[32];
      std::snprintf(due, sizeof(due), "%.9f", s.due_s);
      h = Fnv1a(Fnv1a(h, raw), due);
      bytes += raw.size();
    }
  }
  std::printf("{\"requests\":%zu,\"bytes\":%zu,\"digest\":\"%016llx\"}\n",
              w->measure.size(), bytes, static_cast<unsigned long long>(h));
  return 0;
}

// ---------------------------------------------------------------------------
// drive

/// Blocking keep-alive HTTP/1.1 client for one connection.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port) : port_(port) {}
  ~HttpClient() { Close(); }

  /// Sends `request` and reads one response. Returns the status code, or 0
  /// on a transport failure (the connection is then reopened next time).
  int Roundtrip(const std::string& request, std::string* body) {
    if (fd_ < 0 && !Connect()) return 0;
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return Broken();
      sent += static_cast<size_t>(n);
    }
    size_t header_end = std::string::npos;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Receive()) return Broken();
    }
    const int status = std::atoi(buffer_.c_str() + buffer_.find(' ') + 1);
    size_t length = 0;
    const std::string headers = buffer_.substr(0, header_end);
    const size_t cl = headers.find("Content-Length:");
    if (cl != std::string::npos) {
      length = std::strtoull(headers.c_str() + cl + 15, nullptr, 10);
    }
    const size_t total = header_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Receive()) return Broken();
    }
    body->assign(buffer_, header_end + 4, length);
    buffer_.erase(0, total);
    if (headers.find("Connection: close") != std::string::npos) Close();
    return status;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }
  bool Receive() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  int Broken() {
    Close();
    return 0;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  const uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

constexpr size_t kConnections = 4;
/// A phase that has not finished by then is abandoned (its unsent
/// requests count as failures and run.py reports the run invalid).
constexpr double kPhaseLimitSeconds = 150.0;

std::vector<Record> Drive(uint16_t port, const Workload& w, bool measure) {
  const std::vector<Submission>& subs = measure ? w.measure : w.warmup;
  // Warm-up is always closed loop on one connection: it primes caches,
  // it is not a load test.
  const bool open_loop = measure && w.open_loop;
  const size_t clients = measure ? kConnections : 1;
  std::vector<Record> records(subs.size());
  std::unique_ptr<std::atomic<bool>[]> acked(
      new std::atomic<bool>[subs.size()]);
  for (size_t i = 0; i < subs.size(); ++i) acked[i] = false;

  std::atomic<size_t> next{0};
  const int64_t start_ns = NowNs() + 20'000'000;  // let every client start
  const int64_t limit_ns =
      start_ns + static_cast<int64_t>(kPhaseLimitSeconds * 1e9);
  auto client = [&] {
    HttpClient http(port);
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(start_ns)));
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= subs.size()) return;
      Record& r = records[i];
      r.idx = i;
      if (NowNs() > limit_ns) continue;  // abandoned: status 0
      const std::string raw = RenderRequest(subs[i]);
      if (open_loop) {
        r.due_ns = start_ns + static_cast<int64_t>(subs[i].due_s * 1e9);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(r.due_ns)));
      }
      // A re-sent id goes out only once its original was answered; the
      // wait (if any) counts against the re-send's latency.
      if (subs[i].dup_of >= 0) {
        while (!acked[subs[i].dup_of].load() && NowNs() < limit_ns) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      r.send_ns = NowNs();
      if (!open_loop) r.due_ns = r.send_ns;
      r.status = http.Roundtrip(raw, &r.body);
      r.recv_ns = NowNs();
      acked[i] = true;
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  for (Record& r : records) {
    if (r.due_ns != 0) r.due_ns -= start_ns;
    if (r.send_ns != 0) r.send_ns -= start_ns;
    if (r.recv_ns != 0) r.recv_ns -= start_ns;
  }
  return records;
}

int CmdDrive(const Flags& flags) {
  auto common = ParseCommon(flags);
  if (!common.ok()) return Fail(common.status().ToString());
  const bool measure = Get(flags, "phase") == "measure";
  auto w = MakeWorkload(common->workload, common->seed, common->seconds,
                        measure);
  if (!w.ok()) return Fail(w.status().ToString());
  const uint16_t port = static_cast<uint16_t>(std::stoul(Get(flags, "port")));
  const std::vector<Record> records = Drive(port, *w, measure);
  size_t failed = 0;
  for (const Record& r : records) failed += r.status / 100 != 2;
  if (const std::string out = Get(flags, "out"); !out.empty()) {
    std::ofstream file(out);
    for (const Record& r : records) {
      file << r.idx << '\t' << r.status << '\t' << r.due_ns << '\t'
           << r.send_ns << '\t' << r.recv_ns << '\t' << r.body << '\n';
    }
    if (!file) return Fail("cannot write " + out);
  }
  std::printf("{\"requests\":%zu,\"failed\":%zu}\n", records.size(), failed);
  return failed == 0 || measure ? 0 : 1;
}

// ---------------------------------------------------------------------------
// check

/// Platform name -> profile; the single-profile case uses the name "".
Result<std::map<std::string, BinProfile>> LoadProfiles(const Flags& flags) {
  std::map<std::string, BinProfile> profiles;
  if (auto it = flags.find("profile"); it != flags.end()) {
    SLADE_ASSIGN_OR_RETURN(BinProfile p, LoadBinProfileCsv(it->second));
    profiles.emplace("", std::move(p));
  }
  if (auto it = flags.find("profiles"); it != flags.end()) {
    std::stringstream spec(it->second);
    std::string pair;
    while (std::getline(spec, pair, ',')) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("--profiles expects name=FILE");
      }
      SLADE_ASSIGN_OR_RETURN(BinProfile p,
                             LoadBinProfileCsv(pair.substr(eq + 1)));
      profiles.emplace(pair.substr(0, eq), std::move(p));
    }
  }
  if (profiles.empty()) return Status::InvalidArgument("no profile given");
  return profiles;
}

bool SameCost(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

int CmdCheck(const Flags& flags) {
  auto common = ParseCommon(flags);
  if (!common.ok()) return Fail(common.status().ToString());
  auto w = MakeWorkload(common->workload, common->seed, common->seconds);
  if (!w.ok()) return Fail(w.status().ToString());
  auto records = ReadResults(Get(flags, "results"));
  if (!records.ok()) return Fail(records.status().ToString());
  auto profiles = LoadProfiles(flags);
  if (!profiles.ok()) return Fail(profiles.status().ToString());
  if (records->size() != w->measure.size()) {
    return Fail("results do not match the generated workload");
  }
  // One engine per platform: isolated sharing makes each solve the
  // standalone OPQ-Extended plan, and the cache never changes a plan.
  EngineOptions engine_options;
  engine_options.sharing = BatchSharing::kIsolated;
  std::map<std::string, std::unique_ptr<DecompositionEngine>> engines;
  for (const auto& [name, profile] : *profiles) {
    engines[name] = std::make_unique<DecompositionEngine>(engine_options);
  }

  uint64_t fresh = 0, duplicates = 0, errors = 0, mismatches = 0;
  uint64_t rebills = 0, atomic = 0, bins = 0;
  double cost = 0.0;
  std::vector<Answer> answers(records->size());
  std::string first_problem;
  auto problem = [&](size_t idx, const std::string& what) {
    if (first_problem.empty()) {
      first_problem = "request " + std::to_string(idx) + ": " + what;
    }
  };
  for (const Record& r : *records) {
    const Submission& s = w->measure[r.idx];
    if (r.status / 100 != 2) {
      ++errors;
      problem(r.idx, "status " + std::to_string(r.status) + " " + r.body);
      continue;
    }
    auto answer = ParseAnswer(r.body);
    if (!answer.ok()) {
      ++mismatches;
      problem(r.idx, answer.status().ToString());
      continue;
    }
    answers[r.idx] = *answer;
    if (s.dup_of >= 0) {
      ++duplicates;
      const Answer& original = answers[s.dup_of];
      if (!answer->duplicate) {
        ++rebills;
        problem(r.idx, "re-sent id was solved and billed again");
      } else if (answer->cost != original.cost ||
                 answer->bins != original.bins) {
        ++mismatches;
        problem(r.idx, "duplicate answer differs from the original");
      }
      continue;
    }
    ++fresh;
    auto profile = profiles->find(answer->platform);
    auto tasks = DecodeTasks(s.body);
    if (answer->duplicate || profile == profiles->end() ||
        (!answer->platform.empty() && answer->epoch != 1) || !tasks.ok()) {
      ++mismatches;
      problem(r.idx, "fresh answer names no known platform epoch");
      continue;
    }
    auto report =
        engines[answer->platform]->SolveBatch(*tasks, profile->second);
    if (!report.ok() || !SameCost(answer->cost, report->total_cost) ||
        answer->bins != report->total_bins ||
        answer->atomic != s.atomic) {
      ++mismatches;
      problem(r.idx, "cost/bins differ from a standalone solve");
      continue;
    }
    atomic += s.atomic;
    bins += answer->bins;
    cost += answer->cost;
  }
  if (!first_problem.empty()) std::cerr << first_problem << "\n";
  std::printf(
      "{\"checked\":%zu,\"fresh\":%llu,\"duplicates\":%llu,"
      "\"errors\":%llu,\"mismatches\":%llu,\"rebills\":%llu,"
      "\"atomic_tasks\":%llu,\"bins_posted\":%llu,\"total_cost\":%.17g}\n",
      records->size(), static_cast<unsigned long long>(fresh),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(rebills),
      static_cast<unsigned long long>(atomic),
      static_cast<unsigned long long>(bins), cost);
  return 0;
}

// ---------------------------------------------------------------------------
// host (traced run)

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Times every journal call the engine makes. Sync and compaction are
/// attributed to the flush whose outcomes were recorded just before them
/// (the engine's single admission worker makes these calls in order).
class TimedHooks final : public DurabilityHooks {
 public:
  explicit TimedHooks(SubmissionJournal* journal) : journal_(journal) {}

  struct FlushTimes {
    int64_t complete_ns = 0, sync_ns = 0, compact_ns = 0;
  };

  std::string GenerateSubmissionId() override {
    return journal_->GenerateSubmissionId();
  }
  Status RecordAdmit(const std::string& id, const std::string& requester,
                     const std::vector<CrowdsourcingTask>& tasks) override {
    const int64_t t0 = NowNs();
    Status st = journal_->RecordAdmit(id, requester, tasks);
    const int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    if (recording_) admit_ns_[id] = t1 - t0;
    return st;
  }
  Status RecordComplete(const std::string& id,
                        const SubmissionOutcome& outcome) override {
    const int64_t t0 = NowNs();
    Status st = journal_->RecordComplete(id, outcome);
    const int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    current_flush_ = outcome.flush_id;
    if (recording_) flushes_[current_flush_].complete_ns += t1 - t0;
    return st;
  }
  Status RecordReject(const std::string& id) override {
    return journal_->RecordReject(id);
  }
  Status SyncOutcomes() override {
    const int64_t t0 = NowNs();
    Status st = journal_->SyncOutcomes();
    const int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    if (recording_) flushes_[current_flush_].sync_ns += t1 - t0;
    return st;
  }
  bool LookupCompleted(const std::string& id,
                       SubmissionOutcome* outcome) const override {
    return journal_->LookupCompleted(id, outcome);
  }
  Status Compact() override {
    const int64_t t0 = NowNs();
    Status st = journal_->Compact();
    const int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    if (recording_) flushes_[current_flush_].compact_ns += t1 - t0;
    return st;
  }

  void SetRecording(bool on) {
    std::lock_guard<std::mutex> lock(mutex_);
    recording_ = on;
    if (on) {
      admit_ns_.clear();
      flushes_.clear();
    }
  }
  std::map<std::string, int64_t> admit_ns() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return admit_ns_;
  }
  std::map<uint64_t, FlushTimes> flushes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return flushes_;
  }

 private:
  SubmissionJournal* const journal_;
  mutable std::mutex mutex_;
  bool recording_ = false;
  uint64_t current_flush_ = 0;
  std::map<std::string, int64_t> admit_ns_;  ///< by submission id
  std::map<uint64_t, FlushTimes> flushes_;
};

/// Counter snapshot taken at both ends of the measured phase.
struct Snapshot {
  StreamingStats engine;
  CacheStats cache;
  ServerStats server;
  JournalStats journal;
};

std::atomic<int> g_signal{0};
void OnSignal(int sig) { g_signal.store(sig); }

bool ParseUint(const Flags& flags, const std::string& key, uint64_t* out) {
  auto it = flags.find(key);
  if (it == flags.end()) return true;
  char* end = nullptr;
  *out = std::strtoull(it->second.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

/// The serve flags the workloads use; anything else is refused so the
/// traced host can never silently diverge from `slade_cli serve`.
Status BuildOptions(const Flags& flags, StreamingOptions* options,
                    FairnessOptions* fairness) {
  static const char* const kKnown[] = {
      "profile", "profiles", "routing", "max-delay-ms", "max-pending-atomic",
      "fairness", "fair-quantum", "tenant-weights", "cache-max-entries",
      "threads", "wal-dir", "workload", "seed", "seconds", "results",
      "spans"};
  for (const auto& [key, value] : flags) {
    if (std::find(std::begin(kKnown), std::end(kKnown), key) ==
        std::end(kKnown)) {
      return Status::InvalidArgument("host does not support --" + key);
    }
  }
  uint64_t atomic_cap = options->max_pending_atomic_tasks;
  uint64_t threads = options->num_threads;
  if (!ParseUint(flags, "max-pending-atomic", &atomic_cap) ||
      !ParseUint(flags, "fair-quantum", &fairness->quantum_atomic_tasks) ||
      !ParseUint(flags, "cache-max-entries",
                 &options->resources.cache_max_entries) ||
      !ParseUint(flags, "threads", &threads)) {
    return Status::InvalidArgument("bad numeric flag");
  }
  options->max_pending_atomic_tasks = atomic_cap;
  options->num_threads = static_cast<uint32_t>(threads);
  if (auto it = flags.find("max-delay-ms"); it != flags.end()) {
    options->max_delay_seconds = std::stod(it->second) / 1e3;
  }
  fairness->enabled = flags.count("fairness") || flags.count("fair-quantum") ||
                      flags.count("tenant-weights");
  std::stringstream weights(Get(flags, "tenant-weights"));
  std::string pair;
  while (std::getline(weights, pair, ',')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--tenant-weights expects name=W");
    }
    fairness->weights[pair.substr(0, eq)] = std::stoull(pair.substr(eq + 1));
  }
  return Status::OK();
}

/// The in-process server, wired as `slade_cli serve` wires it. Members are
/// destroyed in reverse order: the server before the engine, the engine
/// before the journal and the registry it points to.
struct Host {
  StreamingOptions options;
  std::unique_ptr<ProfileRegistry> registry;
  std::optional<BinProfile> profile;
  std::unique_ptr<SubmissionJournal> journal;
  std::unique_ptr<TimedHooks> hooks;
  std::unique_ptr<StreamingEngine> engine;
  std::unique_ptr<SladeServer> server;

  Snapshot TakeSnapshot() const {
    Snapshot s;
    s.engine = engine->stats();
    s.cache = engine->cache().stats();
    s.server = server->stats();
    if (journal != nullptr) s.journal = journal->stats();
    return s;
  }
};

/// Registry, profile, options, journal (recovered before the engine
/// exists), engine, server: the order `slade_cli serve` uses.
Status StartHost(const Flags& flags, Host* host) {
  SLADE_ASSIGN_OR_RETURN(auto profiles, LoadProfiles(flags));
  if (flags.count("profiles") || flags.count("routing")) {
    host->registry = std::make_unique<ProfileRegistry>();
    SLADE_ASSIGN_OR_RETURN(
        host->options.routing,
        ParseRoutingPolicy(Get(flags, "routing", "cheapest")));
    std::stringstream spec(Get(flags, "profiles"));
    std::string pair;
    while (std::getline(spec, pair, ',')) {
      const std::string name = pair.substr(0, pair.find('='));
      SLADE_RETURN_NOT_OK(
          host->registry->Register(name, profiles.at(name)).status());
    }
    host->options.registry = host->registry.get();
  }
  host->profile = profiles.count("")
                      ? profiles.at("")
                      : *host->registry->LiveSnapshots().front().profile;
  SLADE_RETURN_NOT_OK(
      BuildOptions(flags, &host->options, &host->options.fairness));

  std::vector<RecoveredSubmission> recovered;
  if (auto it = flags.find("wal-dir"); it != flags.end()) {
    JournalOptions journal_options;
    journal_options.wal.dir = it->second;
    SLADE_ASSIGN_OR_RETURN(auto opened,
                           SubmissionJournal::Open(std::move(journal_options)));
    host->journal = std::move(opened.journal);
    recovered = std::move(opened.pending);
    host->hooks = std::make_unique<TimedHooks>(host->journal.get());
    host->options.durability = host->hooks.get();
  }
  ServerOptions server_options;
  server_options.port = 0;
  server_options.journal = host->journal.get();

  host->engine =
      std::make_unique<StreamingEngine>(*host->profile, host->options);
  if (host->journal != nullptr) {
    host->engine->ReplayRecovered(std::move(recovered));
    SLADE_RETURN_NOT_OK(host->journal->CommitRecovery());
  }
  host->server =
      std::make_unique<SladeServer>(host->engine.get(), server_options);
  return host->server->Start();
}

/// Per-request stage times of the traced run.
struct Stage {
  double parse_us = 0, decode_us = 0, route_us = 0, admit_us = 0,
         journal_admit_us = 0, encode_us = 0;
  double queue_ms = 0, solve_ms = 0, journal_ms = 0;
};

/// What replaying one traced run learned; vectors are indexed by measured
/// request, and only fresh 2xx answers are replayed.
struct Replay {
  std::vector<Stage> stages;
  std::vector<Answer> answers;
  std::vector<bool> fresh;
  std::vector<std::vector<CrowdsourcingTask>> tasks;
  std::vector<double> split_us;  ///< per re-solved group
  double solve_wall_seconds = 0.0;  ///< SolveBatch wall time, all flushes
  uint64_t flushes = 0;
  double hit_seconds = 0.0;      ///< shards whose OPQ came from the cache
  uint64_t hit_atomic = 0, bins = 0, atomic = 0;
  uint64_t mismatches = 0;  ///< re-solved slices that differ from answers
  uint64_t plan_arena_peak_bytes = 0;
};

/// Runs `stage` and keeps its wall time, in microseconds, in `*best` if
/// it is the fastest pass so far.
template <typename F>
void KeepFastest(int pass, double* best, F&& stage) {
  const int64_t t0 = NowNs();
  stage();
  const double us = (NowNs() - t0) / 1e3;
  if (pass == 0 || us < *best) *best = us;
}

/// Wire and handler stages, request by request: HTTP parse, JSON decode
/// (with FromThresholds), routing and the answer's JSON encoding. Three
/// passes over all requests, each stage keeping its fastest: preemption
/// and faults only ever add time, and the passes are seconds apart, so a
/// burst of noise on the VM does not slow all three.
Status ReplayRequests(const Host& host, const std::vector<Submission>& subs,
                      const std::vector<Record>& records, Replay* replay) {
  const size_t n = subs.size();
  replay->stages.assign(n, Stage{});
  replay->answers.assign(n, Answer{});
  replay->fresh.assign(n, false);
  replay->tasks.assign(n, {});
  for (const Record& r : records) {
    if (r.status != 200 || subs[r.idx].dup_of >= 0) continue;
    auto answer = ParseAnswer(r.body);
    if (!answer.ok() || answer->duplicate) continue;
    replay->answers[r.idx] = *answer;
    replay->fresh[r.idx] = true;
  }
  const HttpParserLimits limits;
  for (int pass = 0; pass < 3; ++pass) {
    for (const Record& r : records) {
      if (!replay->fresh[r.idx]) continue;
      const Submission& s = subs[r.idx];
      const Answer& answer = replay->answers[r.idx];
      Stage& st = replay->stages[r.idx];

      const std::string raw = RenderRequest(s);
      HttpRequest request;
      KeepFastest(pass, &st.parse_us, [&] {
        HttpRequestParser parser(limits);
        HttpParseState state = parser.Feed(raw.data(), raw.size());
        request = parser.ConsumeRequest(&state);
      });

      Result<std::vector<CrowdsourcingTask>> tasks =
          Status::Internal("not decoded");
      KeepFastest(pass, &st.decode_us,
                  [&] { tasks = DecodeTasks(request.body); });
      SLADE_RETURN_NOT_OK(tasks.status());
      replay->tasks[r.idx] = std::move(*tasks);

      if (host.registry != nullptr) {
        Result<PlatformSnapshot> routed = Status::Internal("not routed");
        KeepFastest(pass, &st.route_us, [&] {
          routed = host.registry->Route(s.tenant, replay->tasks[r.idx],
                                        host.options.routing);
        });
        SLADE_RETURN_NOT_OK(routed.status());
      }

      // The fields and order of SladeServer's submit answer.
      std::string encoded;
      KeepFastest(pass, &st.encode_us, [&] {
        JsonWriter w;
        w.BeginObject();
        w.Key("requester");
        w.Value(s.tenant);
        if (!s.submission_id.empty()) {
          w.Key("submission_id");
          w.Value(s.submission_id);
        }
        w.Key("duplicate");
        w.Value(false);
        w.Key("num_tasks");
        w.Value(static_cast<uint64_t>(replay->tasks[r.idx].size()));
        w.Key("num_atomic_tasks");
        w.Value(static_cast<uint64_t>(s.atomic));
        w.Key("cost");
        w.Value(answer.cost);
        w.Key("bins_posted");
        w.Value(answer.bins);
        w.Key("flush_id");
        w.Value(answer.flush_id);
        w.Key("latency_seconds");
        w.Value(answer.latency_seconds);
        if (!answer.platform.empty()) {
          w.Key("platform");
          w.Value(answer.platform);
          w.Key("epoch");
          w.Value(answer.epoch);
        }
        w.EndObject();
        encoded = std::move(w).Take();
      });
      if (encoded.empty()) return Status::Internal("empty encoding");
    }
  }
  if (host.hooks != nullptr) {
    const std::map<std::string, int64_t> admit_ns = host.hooks->admit_ns();
    for (size_t i = 0; i < n; ++i) {
      auto it = admit_ns.find(subs[i].submission_id);
      if (replay->fresh[i] && it != admit_ns.end()) {
        replay->stages[i].journal_admit_us = it->second / 1e3;
      }
    }
  }
  return Status::OK();
}

/// Admission: Submit into a replay engine configured like the live one,
/// minus the journal and the registry, whose calls journal.admit_us and
/// registry.route_us report. The
/// replay engine solves what it admits, so only an evenly spaced sample of
/// at most kAdmitSamples submissions is replayed; every request is charged
/// the sample mean.
void ReplayAdmission(const Host& host, const std::vector<Submission>& subs,
                     Replay* replay) {
  constexpr size_t kAdmitSamples = 400;
  std::vector<size_t> fresh;
  for (size_t i = 0; i < subs.size(); ++i) {
    if (replay->fresh[i]) fresh.push_back(i);
  }
  StreamingOptions options = host.options;
  options.durability = nullptr;
  options.registry = nullptr;
  StreamingEngine engine(*host.profile, options);
  std::vector<std::future<Result<RequesterPlan>>> futures;
  const size_t stride = std::max<size_t>(
      1, (fresh.size() + kAdmitSamples - 1) / kAdmitSamples);
  double sampled_us = 0.0;
  size_t samples = 0;
  for (size_t k = 0; k < fresh.size(); k += stride) {
    const size_t i = fresh[k];
    std::vector<CrowdsourcingTask> copy = replay->tasks[i];
    const int64_t t0 = NowNs();
    futures.push_back(
        engine.Submit(subs[i].tenant, std::move(copy), subs[i].submission_id));
    const int64_t t1 = NowNs();
    sampled_us += (t1 - t0) / 1e3;
    ++samples;
  }
  engine.Drain();
  for (size_t i : fresh) {
    replay->stages[i].admit_us = sampled_us / std::max<size_t>(samples, 1);
  }
}

/// Re-solves every flush, rebuilt from the flush_id of the fresh answers
/// (members in send order, grouped by serving platform as the engine
/// groups them), and splits it back into slices. An answer's
/// latency_seconds ends after the split and before the flush's journal
/// calls, so its queue wait is the latency minus the re-solve and split.
Status ReplayFlushes(const Host& host, const std::vector<Submission>& subs,
                     const std::map<uint64_t, TimedHooks::FlushTimes>& times,
                     Replay* replay) {
  std::map<uint64_t, std::vector<size_t>> members_of;
  for (size_t i = 0; i < subs.size(); ++i) {
    if (replay->fresh[i]) {
      members_of[replay->answers[i].flush_id].push_back(i);
    }
  }
  EngineOptions engine_options;
  engine_options.num_threads = host.options.num_threads;
  engine_options.opq_node_budget = host.options.opq_node_budget;
  engine_options.sharing = host.options.sharing;
  engine_options.resources = host.options.resources;
  DecompositionEngine solver(engine_options);
  std::map<std::string, PlatformSnapshot> platforms;
  if (host.registry != nullptr) {
    for (PlatformSnapshot& p : host.registry->LiveSnapshots()) {
      platforms[p.platform_id] = p;
    }
  }
  for (const auto& [flush_id, members] : members_of) {
    std::map<std::string, std::vector<size_t>> groups;
    for (size_t i : members) {
      groups[replay->answers[i].platform].push_back(i);
    }
    double solve_ms = 0.0;
    for (const auto& [platform, group] : groups) {
      const BinProfile* profile = &*host.profile;
      uint64_t salt = 0;
      if (!platform.empty()) {
        profile = platforms.at(platform).profile.get();
        salt = platforms.at(platform).salt;
      }
      std::vector<CrowdsourcingTask> tasks;
      std::vector<RequesterSpan> spans;
      for (size_t i : group) {
        RequesterSpan span;
        span.requester_id = subs[i].tenant;
        span.first_task = tasks.size();
        span.num_tasks = replay->tasks[i].size();
        spans.push_back(span);
        tasks.insert(tasks.end(), replay->tasks[i].begin(),
                     replay->tasks[i].end());
      }
      const int64_t t0 = NowNs();
      auto report = solver.SolveBatch(tasks, *profile, salt);
      const int64_t t1 = NowNs();
      SLADE_RETURN_NOT_OK(report.status());
      auto slices = PlanSplitter::SplitBySpans(*report, *profile, spans);
      const int64_t t2 = NowNs();
      SLADE_RETURN_NOT_OK(slices.status());
      solve_ms += (t2 - t0) / 1e6;
      replay->split_us.push_back((t2 - t1) / 1e3);
      replay->solve_wall_seconds += report->wall_seconds;
      for (const ShardStats& shard : report->shards) {
        if (!shard.opq_cache_hit) continue;
        replay->hit_seconds += shard.seconds;
        replay->hit_atomic += shard.num_atomic_tasks;
      }
      replay->bins += report->total_bins;
      replay->atomic += report->num_atomic_tasks();
      for (size_t k = 0; k < group.size(); ++k) {
        if (!SameCost((*slices)[k].cost, replay->answers[group[k]].cost)) {
          ++replay->mismatches;
        }
      }
    }
    double journal_ms = 0.0;
    if (auto it = times.find(flush_id); it != times.end()) {
      journal_ms = (it->second.complete_ns + it->second.sync_ns +
                    it->second.compact_ns) / 1e6;
    }
    for (size_t i : members) {
      Stage& st = replay->stages[i];
      st.solve_ms = solve_ms;
      st.queue_ms = replay->answers[i].latency_seconds * 1e3 - solve_ms;
      st.journal_ms = journal_ms;
    }
    ++replay->flushes;
  }
  replay->plan_arena_peak_bytes = solver.plan_arena_counters().peak_bytes;
  return Status::OK();
}

/// Request-side means of the traced run.
struct Means {
  double e2e_ms = 0, parse_us = 0, decode_us = 0, route_us = 0, admit_us = 0,
         journal_admit_us = 0, encode_us = 0, queue_ms = 0, solve_ms = 0,
         journal_ms = 0, residual_ms = 0;
  double min_residual_ms = 0;
  uint64_t overdrawn = 0;  ///< requests whose residual is below -slack
};

/// The replayed CPU stages may run this much slower than they ran live
/// (on a shared VM the same loop's speed drifts by up to 40% over tens of
/// seconds). The journal calls are timed live and get no slack.
constexpr double kReplaySlack = 0.5;

/// Writes one span tree per fresh request, laid end to end from its due
/// time, and returns the means over those requests. The wire residual is
/// the end-to-end time outside the engine's latency window, the flush's
/// journal calls and the replayed stages around them. A request whose
/// residual is more negative than the replay slack is overdrawn: some
/// stage was counted twice.
Result<Means> WriteSpans(const std::string& path,
                         const std::vector<Record>& records,
                         const Replay& replay) {
  std::ofstream out(path);
  Means sum;
  size_t n = 0;
  for (const Record& r : records) {
    if (!replay.fresh[r.idx]) continue;
    const Stage& st = replay.stages[r.idx];
    const double e2e_ms = (r.recv_ns - r.due_ns) / 1e6;
    const double latency_ms = replay.answers[r.idx].latency_seconds * 1e3;
    const double replayed_ms =
        (st.parse_us + st.decode_us + st.route_us + st.admit_us +
         st.encode_us) / 1e3;
    const double residual_ms = e2e_ms - latency_ms - st.journal_ms -
                               st.journal_admit_us / 1e3 - replayed_ms;
    const double base_ms = r.due_ns / 1e6;
    out << "{\"name\":\"submit\",\"start_ms\":" << base_ms
        << ",\"end_ms\":" << base_ms + e2e_ms
        << ",\"parent\":null,\"request_id\":" << r.idx << "}\n";
    double at = base_ms;
    auto child = [&](const char* name, double ms) {
      out << "{\"name\":\"" << name << "\",\"start_ms\":" << at
          << ",\"end_ms\":" << at + ms
          << ",\"parent\":\"submit\",\"request_id\":" << r.idx << "}\n";
      at += ms;
    };
    child("server.parse", st.parse_us / 1e3);
    child("server.json_decode", st.decode_us / 1e3);
    child("registry.route", st.route_us / 1e3);
    child("engine.admit", st.admit_us / 1e3);
    child("journal.admit", st.journal_admit_us / 1e3);
    child("engine.queue_wait", st.queue_ms);
    child("engine.solve", st.solve_ms);
    child("journal.flush", st.journal_ms);
    child("server.json_encode", st.encode_us / 1e3);
    child("server.wire_residual", residual_ms);

    sum.e2e_ms += e2e_ms;
    sum.parse_us += st.parse_us;
    sum.decode_us += st.decode_us;
    sum.route_us += st.route_us;
    sum.admit_us += st.admit_us;
    sum.journal_admit_us += st.journal_admit_us;
    sum.encode_us += st.encode_us;
    sum.queue_ms += st.queue_ms;
    sum.solve_ms += st.solve_ms;
    sum.journal_ms += st.journal_ms;
    sum.residual_ms += residual_ms;
    if (n == 0 || residual_ms < sum.min_residual_ms) {
      sum.min_residual_ms = residual_ms;
    }
    if (residual_ms < -kReplaySlack * replayed_ms) ++sum.overdrawn;
    ++n;
  }
  if (!out) return Status::IOError("cannot write " + path);
  if (n == 0) return sum;
  for (double* field :
       {&sum.e2e_ms, &sum.parse_us, &sum.decode_us, &sum.route_us,
        &sum.admit_us, &sum.journal_admit_us, &sum.encode_us, &sum.queue_ms,
        &sum.solve_ms, &sum.journal_ms, &sum.residual_ms}) {
    *field /= static_cast<double>(n);
  }
  return sum;
}

std::map<std::string, double> LayerMetrics(
    const Snapshot& before, const Snapshot& after, const Replay& replay,
    const Means& means, const TimedHooks* hooks) {
  const auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double flushes = d(after.engine.flushes, before.engine.flushes);
  const double requests = d(after.server.requests, before.server.requests);
  const double builds = d(after.cache.builds, before.cache.builds);
  const double nodes = d(after.cache.build_stats.nodes_visited,
                         before.cache.build_stats.nodes_visited);
  const double lookups = d(after.cache.hits, before.cache.hits) +
                         d(after.cache.misses, before.cache.misses);
  const double wal_records = d(after.journal.wal.records_appended,
                               before.journal.wal.records_appended);
  std::vector<double> journal_admit_us, sync_ms, compact_us;
  if (hooks != nullptr) {
    for (const auto& [id, ns] : hooks->admit_ns()) {
      journal_admit_us.push_back(ns / 1e3);
    }
    for (const auto& [id, t] : hooks->flushes()) {
      sync_ms.push_back(t.sync_ns / 1e6);
      compact_us.push_back(t.compact_ns / 1e3);
    }
  }
  std::map<std::string, double> m;
  m["server.parse_us"] = means.parse_us;
  m["server.json_decode_us"] = means.decode_us;
  m["server.json_encode_us"] = means.encode_us;
  m["server.wire_residual_ms"] = means.residual_ms;
  m["server.bytes_in_per_req"] =
      ratio(d(after.server.bytes_in, before.server.bytes_in), requests);
  m["server.bytes_out_per_req"] =
      ratio(d(after.server.bytes_out, before.server.bytes_out), requests);
  m["engine.admit_us"] = means.admit_us;
  m["engine.queue_wait_ms"] = means.queue_ms;
  m["engine.batch_size"] =
      ratio(d(after.engine.submissions, before.engine.submissions), flushes);
  m["engine.flush_by_deadline_frac"] = ratio(
      d(after.engine.flushes_by_deadline, before.engine.flushes_by_deadline),
      flushes);
  m["engine.solve_ms_per_flush"] =
      ratio((after.engine.solve_seconds - before.engine.solve_seconds) * 1e3,
            flushes);
  m["opq_cache.hit_rate"] =
      ratio(d(after.cache.hits, before.cache.hits), lookups);
  m["opq_cache.build_ms"] =
      ratio((after.cache.build_seconds - before.cache.build_seconds) * 1e3,
            builds);
  m["opq_cache.nodes_per_build"] = ratio(nodes, builds);
  m["opq_cache.peak_bytes"] = static_cast<double>(after.cache.peak_bytes);
  m["solver.assign_us_per_katomic"] =
      ratio(replay.hit_seconds * 1e9, static_cast<double>(replay.hit_atomic));
  m["solver.bins_per_katomic"] = ratio(static_cast<double>(replay.bins) * 1e3,
                                       static_cast<double>(replay.atomic));
  m["plan_arena.peak_bytes"] =
      static_cast<double>(replay.plan_arena_peak_bytes);
  m["splitter.split_us_per_flush"] = Mean(replay.split_us);
  m["registry.route_us"] = means.route_us;
  m["journal.admit_us"] = Mean(journal_admit_us);
  m["journal.sync_ms"] = Mean(sync_ms);
  m["journal.compact_us"] = Mean(compact_us);
  m["wal.records_per_fsync"] = ratio(
      wal_records, d(after.journal.wal.fsyncs, before.journal.wal.fsyncs));
  m["trace.flush_solve_ms"] = means.solve_ms;
  m["trace.e2e_mean_ms"] = means.e2e_ms;
  m["trace.min_residual_ms"] = means.min_residual_ms;
  m["trace.overdrawn_requests"] = static_cast<double>(means.overdrawn);
  // The replayed SolveBatch against the live one, per flush.
  m["trace.replay_solve_ms_per_flush"] =
      ratio(replay.solve_wall_seconds * 1e3,
            static_cast<double>(replay.flushes));
  m["trace.replay_mismatches"] = static_cast<double>(replay.mismatches);
  // Deterministic counters of the traced run (exact for a fixed seed).
  m["count.opq_builds"] = builds;
  m["count.opq_nodes_visited"] = nodes;
  m["count.wal_records"] = wal_records;
  m["count.flushes_by_size"] =
      d(after.engine.flushes_by_size, before.engine.flushes_by_size);
  return m;
}

int CmdHost(const Flags& flags) {
  auto common = ParseCommon(flags);
  if (!common.ok()) return Fail(common.status().ToString());
  auto workload =
      MakeWorkload(common->workload, common->seed, common->seconds);
  if (!workload.ok()) return Fail(workload.status().ToString());
  Host host;
  if (Status st = StartHost(flags, &host); !st.ok()) {
    return Fail(st.ToString());
  }
  std::signal(SIGUSR1, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::printf("listening on 127.0.0.1:%u\n", host.server->port());
  std::fflush(stdout);

  // SIGUSR1 marks the start of the measured phase, SIGTERM its end.
  Snapshot before;
  bool marked = false;
  for (;;) {
    const int sig = g_signal.exchange(0);
    if (sig == SIGUSR1) {
      before = host.TakeSnapshot();
      if (host.hooks != nullptr) host.hooks->SetRecording(true);
      marked = true;
      std::printf("marked\n");
      std::fflush(stdout);
    } else if (sig == SIGTERM || sig == SIGINT) {
      break;
    }
    // The same idle cadence as `slade_cli serve`'s main thread.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (host.hooks != nullptr) host.hooks->SetRecording(false);
  const Snapshot after = host.TakeSnapshot();
  host.server->Shutdown();
  host.engine->Drain();
  if (!marked) return Fail("stopped before the measured phase began");

  auto records = ReadResults(Get(flags, "results"));
  if (!records.ok()) return Fail(records.status().ToString());
  const std::vector<Submission>& subs = workload->measure;
  if (records->size() != subs.size()) {
    return Fail("results do not match the generated workload");
  }
  Replay replay;
  Status st = ReplayRequests(host, subs, *records, &replay);
  if (st.ok()) {
    ReplayAdmission(host, subs, &replay);
    st = ReplayFlushes(
        host, subs,
        host.hooks != nullptr ? host.hooks->flushes()
                              : std::map<uint64_t, TimedHooks::FlushTimes>{},
        &replay);
  }
  if (!st.ok()) return Fail(st.ToString());
  auto means = WriteSpans(Get(flags, "spans"), *records, replay);
  if (!means.ok()) return Fail(means.status().ToString());

  std::printf("{");
  bool first = true;
  for (const auto& [key, value] :
       LayerMetrics(before, after, replay, *means, host.hooks.get())) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", key.c_str(), value);
    first = false;
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: servebench_host gen|drive|check|host ...");
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (!flags) return Fail("flags must be --key value pairs");
  try {
    if (command == "gen") return CmdGen(*flags);
    if (command == "drive") return CmdDrive(*flags);
    if (command == "check") return CmdCheck(*flags);
    if (command == "host") return CmdHost(*flags);
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
  return Fail("unknown command: " + command);
}
