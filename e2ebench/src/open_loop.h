#ifndef ST4ML_E2EBENCH_OPEN_LOOP_H_
#define ST4ML_E2EBENCH_OPEN_LOOP_H_

// The client side shared by `serve` and `ingest_mixed`: the in-process
// daemon, seeded request inputs, and the open-loop generator. Request i is
// due at i / rate seconds after the loop's start, whether or not earlier
// requests have finished, and its latency is timed from that due time —
// so queueing behind a slow request counts against the request that
// waited, not against nobody.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "geometry/point.h"
#include "index/stbox.h"
#include "pipeline/session.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/records.h"

namespace e2ebench {

/// An in-process st4mld with the daemon's defaults: a Session with an
/// unbounded dataset cache on the local executor, and a started Server on
/// an ephemeral port. The server is declared last so it stops first.
struct Daemon {
  std::unique_ptr<st4ml::Session> session;
  std::unique_ptr<st4ml::server::Server> server;

  /// Stops the server (draining it), then drops the session it served.
  /// Call before assigning over a running Daemon: member-wise assignment
  /// would free the session first.
  void Stop() {
    server.reset();
    session.reset();
  }
};
Daemon StartDaemon();  // exits the process if the server cannot start

/// One round trip on a fresh connection, parsed, that must answer ok.
/// Exits the process otherwise: for set-up and post-run calls only.
st4ml::server::JsonValue CallOrDie(int port, const std::string& request);

/// `"mbr":[..],"time":[..]` with every digit, so the server parses exactly
/// the box the benchmark checks against.
std::string BoxJson(const st4ml::STBox& box);

/// Query centres: 32 hot spots at the positions of random records, picked
/// with Zipf (s = 1.1) rank weights and Gaussian jitter.
class HotSpots {
 public:
  HotSpots(const std::vector<st4ml::EventRecord>& records, Rng& rng);
  st4ml::Point Pick(Rng& rng, double jitter) const;

 private:
  std::vector<st4ml::Point> spots_;
  std::vector<double> cdf_;
};

/// What one request did. Times are seconds since the loop's start.
struct Outcome {
  double due = 0;
  double sent = 0;
  double received = 0;
  bool ok = false;
  bool shed = false;    // refused with RESOURCE_EXHAUSTED
  bool traced = false;  // issued inside a traced window
  double elapsed_ms = 0;  // the server's own elapsed_us
  size_t bytes = 0;       // response payload
  int64_t count = -1;
  std::string error;

  /// Client-seen latency from the due time; a failed or refused request
  /// is slower than any limit.
  double LatencyMs() const {
    return ok ? (received - due) * 1e3
              : std::numeric_limits<double>::infinity();
  }
};

/// Fills ok/shed/elapsed/bytes/count/error from a raw response.
void ParseOutcome(const std::string& raw, Outcome* out);

class OpenLoop {
 public:
  /// `connections` client threads share the schedule. With `trace`, every
  /// other one-second window of due times is traced: its requests record
  /// spans in the benchmark's own per-thread logs.
  OpenLoop(int port, int connections, double rate, bool trace)
      : port_(port), connections_(connections), rate_(rate), trace_(trace) {}

  using RequestFn = std::function<const std::string&(size_t)>;
  /// Called on the client thread once request i's response (or error) is
  /// in; `raw` is empty on a transport error.
  using HandleFn =
      std::function<void(size_t, const std::string& raw, Outcome*)>;

  /// Issues requests 0..count-1 starting at monotonic time `start` (Now()
  /// when 0) and blocks until every response is in. Returns the wall time.
  double Run(size_t count, const RequestFn& request, const HandleFn& handle,
             std::vector<Outcome>* outcomes, double start = 0);

 private:
  int port_;
  int connections_;
  double rate_;
  bool trace_;
};

/// query_mean_ms / query_p50_ms / query_p99_ms over the untraced requests,
/// plus query.samples, gen.lag_p99_ms and (traced runs) the tracing
/// overhead from traced vs untraced windows.
void SetLatencyMetrics(const std::vector<Outcome>& outcomes, Report* report);

/// server.elapsed_p50_ms / _p99_ms, server.wire_p50_ms,
/// server.response_bytes and server.shed.
void SetServerMetrics(const std::vector<Outcome>& outcomes, Report* report);

}  // namespace e2ebench

#endif  // ST4ML_E2EBENCH_OPEN_LOOP_H_
