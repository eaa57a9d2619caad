#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "server/client.h"

namespace e2ebench {

Daemon StartDaemon() {
  st4ml::ToolOptions options;
  options.has_cache_budget = true;
  options.cache_budget_bytes = -1;  // unbounded, as st4mld defaults
  options.executor = "local";
  Daemon d;
  d.session = std::make_unique<st4ml::Session>(options);
  d.server = std::make_unique<st4ml::server::Server>(
      d.session.get(), st4ml::server::ServerOptions{});
  st4ml::Status started = d.server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "e2ebench: server: %s\n", started.ToString().c_str());
    std::exit(1);
  }
  return d;
}

st4ml::server::JsonValue CallOrDie(int port, const std::string& request) {
  auto client = st4ml::server::Client::Connect(port);
  auto raw = client.ok() ? client->Call(request, size_t{1} << 30)
                         : st4ml::StatusOr<std::string>(client.status());
  using st4ml::server::JsonValue;
  auto parsed = raw.ok() ? st4ml::server::ParseJson(*raw)
                         : st4ml::StatusOr<JsonValue>(raw.status());
  const JsonValue* ok = parsed.ok() ? parsed->Find("ok") : nullptr;
  if (ok == nullptr || !ok->bool_value) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", request.c_str(),
                 raw.ok() ? raw->c_str() : raw.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(parsed).value();
}

std::string BoxJson(const st4ml::STBox& box) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "\"mbr\":[%.17g,%.17g,%.17g,%.17g],\"time\":[%lld,%lld]",
                box.mbr.x_min, box.mbr.y_min, box.mbr.x_max, box.mbr.y_max,
                static_cast<long long>(box.time.start()),
                static_cast<long long>(box.time.end()));
  return buf;
}

HotSpots::HotSpots(const std::vector<st4ml::EventRecord>& records, Rng& rng) {
  double total = 0;
  for (int rank = 0; rank < 32; ++rank) {
    const st4ml::EventRecord& r = records[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(records.size()) - 1))];
    spots_.emplace_back(r.x, r.y);
    total += 1.0 / std::pow(rank + 1, 1.1);
    cdf_.push_back(total);
  }
}

st4ml::Point HotSpots::Pick(Rng& rng, double jitter) const {
  double u = rng.Uniform(0, cdf_.back());
  size_t h = std::min(
      static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin()),
      spots_.size() - 1);
  return st4ml::Point(spots_[h].x + rng.Gaussian() * jitter,
                      spots_[h].y + rng.Gaussian() * jitter);
}

void ParseOutcome(const std::string& raw, Outcome* out) {
  out->bytes = raw.size();
  auto parsed = st4ml::server::ParseJson(raw);
  if (!parsed.ok()) {
    out->error = "unparseable response";
    return;
  }
  const st4ml::server::JsonValue* ok = parsed->Find("ok");
  out->ok = ok != nullptr && ok->IsBool() && ok->bool_value;
  if (!out->ok) {
    std::string code = parsed->GetString("code", "");
    out->shed = code == "RESOURCE_EXHAUSTED";
    out->error = code + ": " + parsed->GetString("error", "");
    return;
  }
  out->elapsed_ms = static_cast<double>(parsed->GetInt("elapsed_us", 0)) / 1e3;
  out->count = parsed->GetInt("count", -1);
}

double OpenLoop::Run(size_t count, const RequestFn& request,
                     const HandleFn& handle, std::vector<Outcome>* outcomes,
                     double start) {
  using Clock = std::chrono::steady_clock;
  if (start == 0) start = Now();
  // Now() reads the same clock, so the epoch maps onto a time_point.
  const Clock::time_point epoch{std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(start))};
  std::atomic<size_t> next{0};
  std::vector<SpanLog> logs(static_cast<size_t>(connections_));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections_; ++c) {
    threads.emplace_back([&, c] {
      SpanLog& log = logs[static_cast<size_t>(c)];
      // Client is move-only and not assignable: (re)connect in place.
      std::optional<st4ml::server::Client> client;
      auto connect = [&] {
        client.reset();
        auto connected = st4ml::server::Client::Connect(port_);
        if (connected.ok()) client.emplace(std::move(*connected));
      };
      connect();
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= count) break;
        Outcome& out = (*outcomes)[i];
        out.due = static_cast<double>(i) / rate_;
        std::this_thread::sleep_until(
            epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(out.due)));
        out.traced = trace_ && static_cast<int64_t>(out.due) % 2 == 1;
        Span span(out.traced ? &log : nullptr, SpanKind::kRequest,
                  static_cast<int>(i), -1);
        out.sent = Now() - start;
        if (!client) connect();
        auto raw = client ? client->Call(request(i))
                          : st4ml::StatusOr<std::string>(
                                st4ml::Status::IOError("cannot connect"));
        out.received = Now() - start;
        if (!raw.ok()) {
          out.error = raw.status().ToString();
          connect();
          handle(i, std::string(), &out);
          continue;
        }
        handle(i, *raw, &out);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Now() - start;
}

void SetLatencyMetrics(const std::vector<Outcome>& outcomes, Report* report) {
  std::vector<double> latency, traced, lag;
  for (const Outcome& o : outcomes) {
    (o.traced ? traced : latency).push_back(o.LatencyMs());
    lag.push_back((o.sent - o.due) * 1e3);
  }
  report->Set("query_mean_ms", Mean(latency));
  report->Set("query_p50_ms", Median(latency));
  report->Set("query_p99_ms", Quantile(latency, 0.99));
  report->Set("query.samples", static_cast<double>(latency.size()));
  report->Set("gen.lag_p99_ms", Quantile(lag, 0.99));
  if (!traced.empty()) {
    double untraced_mean = Mean(latency);
    double traced_mean = Mean(traced);
    report->Set("trace.overhead_s", (traced_mean - untraced_mean) / 1e3);
    report->Set("trace.overhead_frac",
                untraced_mean > 0 ? traced_mean / untraced_mean - 1 : 0);
  }
}

void SetServerMetrics(const std::vector<Outcome>& outcomes, Report* report) {
  std::vector<double> elapsed, wire;
  double bytes = 0;
  size_t shed = 0;
  for (const Outcome& o : outcomes) {
    bytes += static_cast<double>(o.bytes);
    if (o.shed) ++shed;
    if (!o.ok) continue;
    elapsed.push_back(o.elapsed_ms);
    wire.push_back((o.received - o.sent) * 1e3 - o.elapsed_ms);
  }
  report->Set("server.elapsed_p50_ms", Median(elapsed));
  report->Set("server.elapsed_p99_ms", Quantile(elapsed, 0.99));
  report->Set("server.wire_p50_ms", Median(wire));
  report->Set("server.response_bytes",
              outcomes.empty()
                  ? 0
                  : bytes / static_cast<double>(outcomes.size()));
  report->Set("server.shed", static_cast<double>(shed));
}

}  // namespace e2ebench
