// Serving: the built .ocac behind a loopback StoreServer, a
// Zipf-popular request mix from client connections in a closed and an
// open loop, and (traced) in-process replays of the same stream through
// the store and protocol layers.

#include <sys/prctl.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "e2e.h"
#include "util/random.h"

namespace oca::e2e {

namespace {

constexpr size_t kStreamLength = 1 << 16;
constexpr size_t kCheckEvery = 64;  // served responses compared in-process
// 2 client connections and 2 server readers: with the builds' 1 or 2
// threads idle while serving, the load stays within the 4 CPUs of the
// host the benchmark was sized on.
constexpr size_t kConnections = 2;
constexpr size_t kServerReaders = 2;
constexpr int kStoreOpens = 9;
// YCSB's default Zipfian constant (Cooper et al., "Benchmarking Cloud
// Serving Systems with YCSB", SoCC 2010), the common stand-in for
// key-value popularity skew; no published trace of community queries
// exists to take it from.
constexpr double kZipfExponent = 0.99;
constexpr double kOpenRate = 20000.0;       // req/s, all connections
constexpr double kLatencyLimitUs = 500.0;  // on the open-loop p99
constexpr double kMaxWarmSeconds = 0.05;   // per loop, on fresh connections
constexpr double kReplaySeconds = 0.25;    // per in-process replay
constexpr double kMaxTracedLoopSeconds = 2.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The request mix: 60% COMMUNITIES, 30% PATHS, 10% SIBLINGS v k with k
/// uniform over the snapshot's levels; node popularity is Zipf over a
/// seeded permutation, so hot nodes are spread over the id space. The
/// mix is an assumption: membership lookups most common, whole paths
/// next, sibling sets (the largest answers) least.
struct RequestStream {
  std::vector<std::string> lines;
  std::vector<StoreRequest> requests;
  std::vector<std::string> expected;  // response of every kCheckEvery-th
};

Result<RequestStream> MakeStream(const CommunityStore& store, uint64_t seed) {
  const size_t n = store.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty snapshot");
  Rng rng(seed ^ 0x5e12e5ull);
  std::vector<NodeId> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), NodeId{0});
  rng.Shuffle(&by_rank);
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  const uint64_t levels = std::max<uint64_t>(store.metadata().num_levels, 1);

  RequestStream stream;
  std::vector<uint32_t> scratch;
  for (size_t i = 0; i < kStreamLength; ++i) {
    const double u = rng.NextDouble() * total;
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(), n - 1);
    const std::string node = std::to_string(by_rank[rank]);
    const double kind = rng.NextDouble();
    std::string line =
        kind < 0.6   ? "COMMUNITIES " + node
        : kind < 0.9 ? "PATHS " + node
                     : "SIBLINGS " + node + " " +
                           std::to_string(rng.NextBounded(levels));
    OCA_ASSIGN_OR_RETURN(StoreRequest request, ParseStoreRequest(line));
    if (i % kCheckEvery == 0) {
      std::string response;
      ExecuteStoreRequest(store, request, &response, &scratch);
      stream.expected.push_back(std::move(response));
    }
    stream.lines.push_back(std::move(line));
    stream.requests.push_back(request);
  }
  return stream;
}

struct LoopSpec {
  bool open = false;
  double seconds = 0.0;
  double rate = 0.0;  // open loop, all connections together
  bool spans = false;
};

/// Latencies in microseconds to ~0.1% (1024 buckets per power of two)
/// in fixed memory, so a run's footprint does not grow with the number
/// of requests it happens to complete. Failed requests count as
/// infinitely slow.
class LatencyHistogram {
 public:
  void Add(double us) {
    ++count_;
    if (!std::isfinite(us)) return;
    min_ = std::min(min_, us);
    max_ = std::max(max_, us);
    ++buckets_[Index(us)];
  }
  void Merge(const LatencyHistogram& other) {
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  }
  uint64_t count() const { return count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return max_; }
  /// Nearest-rank percentile, p in [0, 100]: its bucket's midpoint, or
  /// infinity when the rank falls among failed requests.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))),
        1, count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return std::clamp(Value(i), min_, max_);
    }
    return kInf;
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr int kMinExponent = -10;  // 2^-10 us, about 1 ns
  static constexpr int kExponents = 42;     // up to 2^32 us, about an hour

  static size_t Index(double us) {
    int e = 0;
    const double mantissa = std::frexp(us, &e);  // us = mantissa * 2^e
    const int exponent = e - 1;                  // us = (2 mantissa) * 2^(e-1)
    if (us <= 0 || exponent < kMinExponent) return 0;
    if (exponent >= kMinExponent + kExponents) return kBuckets - 1;
    const auto sub = static_cast<size_t>((2 * mantissa - 1) * (1 << kSubBits));
    return (static_cast<size_t>(exponent - kMinExponent) << kSubBits) + sub;
  }
  static double Value(size_t index) {
    const int exponent = static_cast<int>(index >> kSubBits) + kMinExponent;
    const double sub = static_cast<double>(index & ((1 << kSubBits) - 1));
    return std::ldexp(1 + (sub + 0.5) / (1 << kSubBits), exponent);
  }
  static constexpr size_t kBuckets = size_t{kExponents} << kSubBits;

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
  double min_ = kInf;
  double max_ = 0.0;
};

struct ConnectionResult {
  LatencyHistogram latency_us;
  LatencyHistogram lag_us;  // open loop: send time minus due time
  std::vector<Span> spans;
  uint64_t sent = 0;
  uint64_t failed = 0;
  Clock::time_point stopped;
};

void WaitUntil(Clock::time_point due) {
  // Sleep to just short of the due time, then spin: a plain sleep adds
  // the scheduler's wake-up delay to every measured latency.
  constexpr auto kSpin = std::chrono::microseconds(40);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

void DriveConnection(StoreClient* client, const RequestStream& stream,
                     size_t conn, const LoopSpec& spec, Clock::time_point start,
                     ConnectionResult* out) {
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(spec.seconds));
  size_t index = conn * (kStreamLength / kConnections);
  for (uint64_t k = 0;; ++k, index = (index + 1) % kStreamLength) {
    Clock::time_point due;
    if (spec.open) {
      // Connection c sends the requests c, c + C, c + 2C, ... of one
      // schedule at `rate`; latency counts from the due time, so a stall
      // is charged to every request queued behind it.
      const double at = static_cast<double>(k * kConnections + conn) / spec.rate;
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at));
      if (due >= end) break;
      WaitUntil(due);
    }
    const Clock::time_point sent = Clock::now();
    if (!spec.open) {
      if (sent >= end) break;
      due = sent;
    }
    auto response = client->Raw(stream.lines[index]);
    const Clock::time_point done = Clock::now();
    ++out->sent;
    bool ok = response.ok();
    if (ok && index % kCheckEvery == 0) {
      ok = "OK " + response.value() + "\n" == stream.expected[index / kCheckEvery];
    }
    if (!ok) ++out->failed;
    out->latency_us.Add(
        ok ? std::chrono::duration<double, std::micro>(done - due).count()
           : kInf);
    if (spec.open) {
      out->lag_us.Add(std::chrono::duration<double, std::micro>(sent - due).count());
    }
    if (spec.spans) {
      out->spans.push_back({"request", ToNs(sent), ToNs(done), -1,
                            (static_cast<uint64_t>(conn) << 40) | (k + 1)});
    }
  }
  out->stopped = Clock::now();
}

struct LoopResult {
  LatencyHistogram latency_us;
  LatencyHistogram lag_us;
  uint64_t sent = 0;
  uint64_t failed = 0;
  double qps = 0.0;
};

/// One loop over every connection. `trace` gets the loop's spans when
/// spec.spans is set, and may be null when it is not.
LoopResult RunLoop(std::vector<StoreClient>* clients, const RequestStream& stream,
                   const LoopSpec& spec, const char* name, Trace* trace) {
  std::vector<ConnectionResult> results(clients->size());
  const int root = spec.spans ? trace->Begin(name) : -1;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(1);  // all threads start together
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients->size(); ++c) {
      threads.emplace_back(DriveConnection, &(*clients)[c], std::cref(stream),
                           c, std::cref(spec), start, &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  if (root >= 0) trace->End(root);
  LoopResult loop;
  Clock::time_point last = start;
  for (ConnectionResult& r : results) {
    loop.sent += r.sent;
    loop.failed += r.failed;
    loop.latency_us.Merge(r.latency_us);
    loop.lag_us.Merge(r.lag_us);
    last = std::max(last, r.stopped);
    for (const Span& s : r.spans) {
      trace->Add(s.name, s.start_ns, s.end_ns, root, s.request);
    }
  }
  const double elapsed = SecondsBetween(start, last);
  loop.qps = elapsed > 0 ? static_cast<double>(loop.sent) / elapsed : 0.0;
  return loop;
}

Result<std::vector<StoreClient>> ConnectClients(uint16_t port) {
  std::vector<StoreClient> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    OCA_ASSIGN_OR_RETURN(StoreClient client, StoreClient::Connect("127.0.0.1", port));
    OCA_RETURN_IF_ERROR(client.Ping());
    clients.push_back(std::move(client));
  }
  return clients;
}

StoreServerOptions ServerOptions() {
  StoreServerOptions options;
  options.num_threads = kServerReaders;
  return options;
}

/// Runs `body` over the whole stream until kReplaySeconds have passed;
/// returns ns per request.
template <typename Body>
double ReplayNsPerQuery(const RequestStream& stream, Body body) {
  size_t done = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (size_t i = 0; i < stream.requests.size(); ++i) body(i);
    done += stream.requests.size();
  } while (SecondsSince(t0) < kReplaySeconds);
  return SecondsSince(t0) * 1e9 / static_cast<double>(done);
}

void TracedReplays(const CommunityStore& store, const RequestStream& stream,
                   Trace* trace, Report* report) {
  std::vector<uint32_t> scratch;
  uint64_t sink = 0;
  double store_ns = 0.0;
  {
    ScopedSpan span(trace, "store_replay");
    store_ns = ReplayNsPerQuery(stream, [&](size_t i) {
      const StoreRequest& r = stream.requests[i];
      switch (r.kind) {
        case StoreRequestKind::kCommunities:
          sink += store.CommunitiesOf(r.node).size();
          break;
        case StoreRequestKind::kPaths:
          for (size_t p = 0; p < store.NumPaths(r.node); ++p) {
            sink += store.MembershipPath(r.node, p).size();
          }
          break;
        case StoreRequestKind::kSiblings:
          store.SiblingsAtLevel(r.node, r.level, &scratch);
          sink += scratch.size();
          break;
        default:
          break;
      }
    });
  }
  std::string out;
  uint64_t bytes = 0;
  uint64_t responses = 0;
  double protocol_ns = 0.0;
  {
    ScopedSpan span(trace, "protocol_replay");
    protocol_ns = ReplayNsPerQuery(stream, [&](size_t i) {
      auto request = ParseStoreRequest(stream.lines[i]);
      if (!request.ok()) return;
      out.clear();
      ExecuteStoreRequest(store, request.value(), &out, &scratch);
      bytes += out.size();
      ++responses;
    });
  }
  report->Attempt(sink > 0 && responses > 0, "in-process replays answer");
  report->Set("store.ns_per_query", store_ns);
  report->Set("protocol.ns_per_query", protocol_ns);
  report->Set("protocol.bytes_per_response",
              responses == 0 ? 0.0
                             : static_cast<double>(bytes) /
                                   static_cast<double>(responses));
}

void AccountLoop(const LoopResult& loop, const char* what, Report* report) {
  report->Attempts(loop.sent, loop.failed,
                   std::string(what) + ": served responses answered and "
                                       "match in-process ExecuteStoreRequest");
}

}  // namespace

struct Serving::State {
  std::string store_path;
  RequestStream stream;
  std::unique_ptr<StoreServer> server;
  std::vector<StoreClient> clients;
  LatencyHistogram open_latency_us;  // every Measure's open loop

  /// Closes the connections and shuts the server down; returns what it
  /// served.
  StoreServer::Stats StopServer() {
    clients.clear();
    if (!server) return {};
    const StoreServer::Stats stats = server->stats();
    server->Shutdown();
    server.reset();
    return stats;
  }
};

Serving::Serving(std::unique_ptr<State> state) : state_(std::move(state)) {}
Serving::Serving(Serving&&) noexcept = default;
Serving& Serving::operator=(Serving&&) noexcept = default;
Serving::~Serving() = default;

Result<Serving> Serving::Make(const std::string& store_path, uint64_t seed) {
  OCA_ASSIGN_OR_RETURN(CommunityStore store, CommunityStore::Open(store_path));
  auto state = std::make_unique<State>();
  state->store_path = store_path;
  OCA_ASSIGN_OR_RETURN(state->stream, MakeStream(store, seed));
  return Serving(std::move(state));
}

Result<double> Serving::Setup() {
  State& s = *state_;
  s.StopServer();
  const Clock::time_point t0 = Clock::now();
  OCA_ASSIGN_OR_RETURN(CommunityStore store, CommunityStore::Open(s.store_path));
  OCA_ASSIGN_OR_RETURN(s.server, StoreServer::Start(std::move(store), ServerOptions()));
  OCA_ASSIGN_OR_RETURN(s.clients, ConnectClients(s.server->port()));
  return SecondsSince(t0);
}

Result<Serving::Slice> Serving::Measure(double seconds, Report* report) {
  State& s = *state_;
  if (!s.server) return Status::Internal("Measure needs a server from Setup");
  // Fresh connections and reader threads start cold, so each loop is
  // preceded by a short warm-up of its own kind.
  const double warm_s = std::min(kMaxWarmSeconds, 0.1 * seconds);
  const double loop_s = std::max(0.0, seconds - 2 * warm_s) / 2;
  AccountLoop(RunLoop(&s.clients, s.stream, {false, warm_s, 0, false}, "", nullptr),
              "warm-up", report);
  const LoopResult closed =
      RunLoop(&s.clients, s.stream, {false, loop_s, 0, false}, "", nullptr);
  AccountLoop(closed, "closed loop", report);
  AccountLoop(RunLoop(&s.clients, s.stream, {true, warm_s, kOpenRate, false}, "",
                      nullptr),
              "open warm-up", report);
  const LoopResult open =
      RunLoop(&s.clients, s.stream, {true, loop_s, kOpenRate, false}, "", nullptr);
  AccountLoop(open, "open loop", report);
  s.open_latency_us.Merge(open.latency_us);
  const StoreServer::Stats stats = s.StopServer();
  report->Attempt(stats.errors == 0 && stats.timeouts == 0,
                  "server answered every request without ERR or timeout");
  return Slice{closed.qps, open.latency_us.Percentile(50)};
}

void Serving::PrintOpenTail() const {
  // The p99 is printed against its limit but is not a bounded metric:
  // its run-to-run spread on a shared host is wider than any usable
  // bound (metrics.json).
  const LatencyHistogram& h = state_->open_latency_us;
  const double p99 = h.Percentile(99);
  std::printf("open loop at %.0f req/s: p99 %.1f us over %" PRIu64
              " requests, limit %.0f us %s\n",
              kOpenRate, p99, h.count(), kLatencyLimitUs,
              p99 <= kLatencyLimitUs ? "met" : "MISSED");
}

bool Serving::Traced(double budget_s, double build_share, Trace* trace,
                     Report* report) {
  State& s = *state_;
  std::vector<double> opens;
  for (int i = 0; i < kStoreOpens; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto again = CommunityStore::Open(s.store_path);
    opens.push_back(SecondsSince(t0));
    report->Attempt(again.ok(), "snapshot reopens");
  }
  report->Set("store.open_s", Median(opens));
  auto store = CommunityStore::Open(s.store_path);
  auto setup = Setup();
  report->Attempt(store.ok() && setup.ok(), "serving set-up");
  if (!store.ok() || !setup.ok()) return false;

  // The in-process replays, then an untraced and a traced closed loop
  // (their difference is the tracing overhead), then a traced open loop.
  TracedReplays(store.value(), s.stream, trace, report);
  const double warm_s = std::min(kMaxWarmSeconds, 0.1 * budget_s);
  // Capped: every traced request is a span kept until the run ends.
  const double third = std::clamp((budget_s - 2 * kReplaySeconds - warm_s) / 3,
                                  0.05, kMaxTracedLoopSeconds);
  AccountLoop(RunLoop(&s.clients, s.stream, {false, warm_s, 0, false}, "", trace),
              "warm-up", report);
  const LoopResult plain =
      RunLoop(&s.clients, s.stream, {false, third, 0, false}, "", trace);
  const LoopResult traced =
      RunLoop(&s.clients, s.stream, {false, third, 0, true}, "serve.closed", trace);
  const LoopResult open = RunLoop(&s.clients, s.stream,
                                  {true, third, kOpenRate, true}, "serve.open", trace);
  AccountLoop(plain, "closed loop", report);
  AccountLoop(traced, "traced closed loop", report);
  AccountLoop(open, "traced open loop", report);
  const double rtt_p50 = traced.latency_us.Percentile(50);
  report->Set("wire.rtt_p50_us", rtt_p50);
  report->Set("wire.overhead_us",
              rtt_p50 - report->metrics().at("protocol.ns_per_query") * 1e-3);
  report->Set("loadgen.lag_p99_us", open.lag_us.Percentile(99));
  report->Set("loadgen.p999_us", open.latency_us.Percentile(99.9));
  // One overhead figure per workload: the build and serve overheads
  // weighted by the workload's own split of its time.
  const double serve_overhead = traced.qps > 0 ? plain.qps / traced.qps - 1.0 : 0.0;
  const double build_overhead = report->metrics().at("trace.overhead_frac");
  report->Set("trace.overhead_frac",
              build_share * build_overhead + (1 - build_share) * serve_overhead);

  const StoreServer::Stats stats = s.StopServer();
  report->Set("server.requests", static_cast<double>(stats.requests));
  report->Set("server.errors", static_cast<double>(stats.errors));
  report->Set("server.timeouts", static_cast<double>(stats.timeouts));
  report->Set("server.connections", static_cast<double>(stats.connections));
  report->Attempt(stats.errors == 0 && stats.timeouts == 0,
                  "server answered every request without ERR or timeout");
  return true;
}

}  // namespace oca::e2e
