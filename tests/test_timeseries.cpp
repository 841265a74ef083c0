// Telemetry history plane: rollup cascades, time series store,
// exporters, and the long-horizon acceptance properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "collector/network_model.hpp"
#include "netsim/traffic.hpp"
#include "obs/recorder.hpp"
#include "obs/rollup.hpp"
#include "obs/series_export.hpp"
#include "obs/timeseries.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "timing.hpp"

namespace remos::obs {
namespace {

// ---------------------------------------------------------------------
// Rollup merge math
// ---------------------------------------------------------------------

TEST(RollupMerge, ExactFieldsMergeExactly) {
  // count, mean, min and max of a merged summary must equal the summary
  // of the concatenated samples -- exactly, not within tolerance.
  const std::vector<double> a{1, 5, 2, 9, 4};
  const std::vector<double> b{7, 3, 8};
  std::vector<double> both = a;
  both.insert(both.end(), b.begin(), b.end());

  const BucketSummary sa = summarize_bucket(0, 10, a);
  const BucketSummary sb = summarize_bucket(10, 10, b);
  const BucketSummary m = merge_buckets(sa, sb);
  const BucketSummary truth = summarize_bucket(0, 20, both);

  EXPECT_EQ(m.count, truth.count);
  EXPECT_DOUBLE_EQ(m.mean, truth.mean);
  EXPECT_DOUBLE_EQ(m.q.min, truth.q.min);
  EXPECT_DOUBLE_EQ(m.q.max, truth.q.max);
  EXPECT_DOUBLE_EQ(m.start, 0);
  EXPECT_DOUBLE_EQ(m.end(), 20);
}

TEST(RollupMerge, QuartilesStayInsideEnvelope) {
  const BucketSummary sa = summarize_bucket(0, 10, {1, 2, 3, 4, 5});
  const BucketSummary sb = summarize_bucket(10, 10, {10, 20, 30});
  const BucketSummary m = merge_buckets(sa, sb);
  // Each merged quartile lies inside [min, max] and inside the envelope
  // of the inputs' corresponding quartiles.
  EXPECT_GE(m.q.median, std::min(sa.q.median, sb.q.median));
  EXPECT_LE(m.q.median, std::max(sa.q.median, sb.q.median));
  EXPECT_GE(m.q.q1, m.q.min);
  EXPECT_LE(m.q.q3, m.q.max);
  EXPECT_LE(m.q.q1, m.q.median);
  EXPECT_LE(m.q.median, m.q.q3);
}

TEST(RollupMerge, EmptySideIsIdentity) {
  const BucketSummary s = summarize_bucket(0, 10, {2, 4, 6});
  const BucketSummary m1 = merge_buckets(s, BucketSummary{});
  EXPECT_EQ(m1.count, s.count);
  EXPECT_DOUBLE_EQ(m1.mean, s.mean);
  const BucketSummary m2 = merge_buckets(BucketSummary{}, s);
  EXPECT_EQ(m2.count, s.count);
  EXPECT_DOUBLE_EQ(m2.q.median, s.q.median);
}

// ---------------------------------------------------------------------
// Property: rollup-vs-raw equivalence within documented tolerance
// ---------------------------------------------------------------------

// The documented contract (obs/rollup.hpp): for streams whose
// distribution is stable across buckets, stitched quartiles match the
// raw-sample ground truth within 15% of the raw spread; count-free
// fields (min/max) are exact element-wise bounds.
TEST(RollupProperty, StitchedMatchesRawWithinTolerance) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 1998ULL}) {
    Rng rng(seed);
    TimeSeries::Options opt;
    opt.raw_capacity = 32;  // tiny ring: long windows must use rollups
    TimeSeries ts(opt);
    std::vector<double> all;
    Seconds t = 0;
    for (int i = 0; i < 2000; ++i) {
      const double v = 10.0 + rng.uniform(0.0, 5.0);
      t += 2.0;
      ts.append(t, v);
      all.push_back(v);
    }

    for (const Seconds window : {600.0, 2000.0, 4000.0}) {
      const WindowStats w = ts.window(t, window);
      std::vector<double> in_window;
      for (std::size_t i = 0; i < all.size(); ++i) {
        const Seconds at = 2.0 * static_cast<double>(i + 1);
        if (at > t - window && at <= t) in_window.push_back(all[i]);
      }
      const Measurement truth = Measurement::from_samples(in_window);
      const double spread = truth.quartiles.max - truth.quartiles.min;
      const double tol = 0.15 * spread + 1e-9;

      EXPECT_FALSE(w.truncated) << "seed " << seed << " window " << window;
      EXPECT_GT(w.rollup_buckets, 0u) << "long window must hit rollups";
      EXPECT_NEAR(w.measurement.quartiles.q1, truth.quartiles.q1, tol);
      EXPECT_NEAR(w.measurement.quartiles.median, truth.quartiles.median,
                  tol);
      EXPECT_NEAR(w.measurement.quartiles.q3, truth.quartiles.q3, tol);
      // Bounds are exact over the consulted data, which is a subset of
      // the window: they may be tighter than, never wider than, truth.
      EXPECT_GE(w.measurement.quartiles.min, truth.quartiles.min - 1e-9);
      EXPECT_LE(w.measurement.quartiles.max, truth.quartiles.max + 1e-9);
      EXPECT_NEAR(w.measurement.mean, truth.mean, tol);
    }
  }
}

TEST(RollupProperty, ShortWindowAnswersExactlyFromRaw) {
  TimeSeries ts;  // default 256-sample ring
  Seconds t = 0;
  std::vector<double> all;
  for (int i = 0; i < 100; ++i) {
    t += 2.0;
    const double v = static_cast<double>(i % 7);
    ts.append(t, v);
    all.push_back(v);
  }
  const WindowStats w = ts.window(t, 50.0);
  std::vector<double> in_window(all.end() - 25, all.end());
  const Measurement truth = Measurement::from_samples(in_window);
  EXPECT_EQ(w.rollup_buckets, 0u);
  EXPECT_EQ(w.raw_samples, 25u);
  EXPECT_DOUBLE_EQ(w.measurement.quartiles.median, truth.quartiles.median);
  EXPECT_DOUBLE_EQ(w.measurement.mean, truth.mean);
  EXPECT_FALSE(w.truncated);
}

// ---------------------------------------------------------------------
// Truncation / covered-span semantics (satellite: no silent truncation)
// ---------------------------------------------------------------------

TEST(WindowStats, WindowBeyondRetentionReportsTruncation) {
  TimeSeries ts;
  Seconds t = 0;
  for (int i = 0; i < 50; ++i) ts.append(t += 2.0, 1.0);  // 100 s of data

  const WindowStats full = ts.window(t, 80.0);
  EXPECT_FALSE(full.truncated);
  EXPECT_DOUBLE_EQ(full.coverage(), 1.0);

  const WindowStats past = ts.window(t, 5000.0);
  EXPECT_TRUE(past.truncated);
  EXPECT_LT(past.covered, past.requested);
  EXPECT_NEAR(past.covered, 100.0, 10.0);  // ~the retained span
  EXPECT_LT(past.coverage(), 0.03);
  // Accuracy is discounted by the coverage ratio: the same data read
  // over an honest window scores much higher.
  EXPECT_LT(past.measurement.accuracy,
            full.measurement.accuracy * 0.05 + 1e-12);
}

TEST(WindowStats, EmptySeriesIsFullyTruncated) {
  TimeSeries ts;
  const WindowStats w = ts.window(100.0, 50.0);
  EXPECT_TRUE(w.truncated);
  EXPECT_EQ(w.measurement.samples, 0u);
  EXPECT_DOUBLE_EQ(w.covered, 0.0);
}

// ---------------------------------------------------------------------
// Acceptance: a 10x-raw-ring window answered from rollups, bounded memory
// ---------------------------------------------------------------------

TEST(LinkHistoryRollup, TenTimesRawRingWindowAnswersFromRollups) {
  // Raw ring: 16 samples x 2 s = 32 s.  Window: 320 s (10x).
  collector::LinkHistory h(16);
  Rng rng(7);
  std::vector<double> truth_ab;
  Seconds t = 0;
  for (int i = 0; i < 400; ++i) {  // 800 s of samples
    t += 2.0;
    collector::Sample s;
    s.at = t;
    s.used_ab = 50.0 + rng.uniform(0.0, 10.0);
    s.used_ba = 5.0;
    if (t > 800.0 - 320.0) truth_ab.push_back(s.used_ab);
    h.record(s);
  }

  const WindowStats w = h.used_windowed(t, 320.0, true);
  EXPECT_FALSE(w.truncated);
  EXPECT_GT(w.rollup_buckets, 0u);
  const Measurement truth = Measurement::from_samples(truth_ab);
  const double tol =
      0.15 * (truth.quartiles.max - truth.quartiles.min) + 1e-9;
  EXPECT_NEAR(w.measurement.quartiles.median, truth.quartiles.median, tol);
  EXPECT_NEAR(w.measurement.quartiles.q1, truth.quartiles.q1, tol);
  EXPECT_NEAR(w.measurement.quartiles.q3, truth.quartiles.q3, tol);
  EXPECT_NEAR(w.measurement.mean, truth.mean, tol);

  // Memory stays bounded by ring + cascade capacities, far below what
  // retaining 400 raw samples per direction would take.
  EXPECT_LT(h.memory_bytes(), 400u * 1024u);
}

TEST(LinkHistoryRollup, MergeFromBackfillsRollups) {
  collector::NetworkModel src, dst;
  src.upsert_node("a", true);
  src.upsert_node("b", true);
  src.upsert_link("a", "b", mbps(100), millis(1));
  for (int i = 1; i <= 200; ++i) {
    collector::Sample s;
    s.at = 2.0 * i;
    s.used_ab = 10.0;
    s.used_ba = 1.0;
    src.find_link("a", "b")->history.record(s);
  }
  // The destination discovered the link in the opposite orientation.
  dst.upsert_node("b", true);
  dst.upsert_node("a", true);
  dst.upsert_link("b", "a", mbps(100), millis(1));
  dst.merge_from(src);

  const collector::ModelLink* l = dst.find_link("b", "a");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->history.rollups(true).total_samples(), 200u);
  // Samples flipped into the (b, a) orientation: ab here is src's ba.
  const WindowStats w = l->history.used_windowed(400.0, 300.0, true);
  EXPECT_FALSE(w.truncated);
  EXPECT_NEAR(w.measurement.mean, 1.0, 1e-9);
  const WindowStats back = l->history.used_windowed(400.0, 300.0, false);
  EXPECT_NEAR(back.measurement.mean, 10.0, 1e-9);
}

// ---------------------------------------------------------------------
// Store: idempotent resolution, concurrent appenders
// ---------------------------------------------------------------------

TEST(TimeSeriesStore, ResolutionIsIdempotentAndStable) {
  TimeSeriesStore store;
  TimeSeries& a = store.series("x");
  TimeSeries& b = store.series("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(store.find("x"), &a);
  EXPECT_EQ(store.find("y"), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TimeSeriesStore, ConcurrentAppendersLoseNothing) {
  TimeSeriesStore store;
  constexpr int kThreads = 4;
  constexpr int kPer = 5000;
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&store, c] {
      // Half the threads share one series; half get their own.
      TimeSeries& ts = store.series(c % 2 == 0 ? "shared"
                                               : "own." + std::to_string(c));
      for (int i = 0; i < kPer; ++i)
        ts.append(static_cast<Seconds>(i), static_cast<double>(c));
    });
  }
  for (std::thread& th : threads) th.join();
  std::size_t total = 0;
  for (const std::string& name : store.names())
    total += store.find(name)->total_samples();
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads) * kPer);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST(SeriesExport, CsvHasFixedColumnsAndMonotoneTimestamps) {
  TimeSeriesStore store;
  TimeSeries& ts = store.series("test.series");
  Seconds t = 0;
  for (int i = 0; i < 300; ++i) ts.append(t += 2.0, std::sin(0.1 * i));

  std::ostringstream out;
  dump_series_csv(store, out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "series,level,start,end,count,min,q1,median,q3,max,mean");

  std::map<std::string, double> last_start;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    std::vector<std::string> cols;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) cols.push_back(cell);
    ASSERT_EQ(cols.size(), 11u) << line;
    const std::string key = cols[0] + "/" + cols[1];
    const double start = std::stod(cols[2]);
    if (last_start.contains(key)) {
      EXPECT_GE(start, last_start[key]) << line;
    }
    last_start[key] = start;
    EXPECT_LE(std::stod(cols[2]), std::stod(cols[3]));  // start <= end
  }
  EXPECT_GT(rows, 256u);  // raw rows plus sealed rollup rows
}

TEST(SeriesExport, ExpositionLinesAreScrapable) {
  TimeSeriesStore store;
  TimeSeries& ts = store.series("svc.latency");
  for (int i = 1; i <= 20; ++i)
    ts.append(static_cast<Seconds>(i), 1.0 + i);
  const std::string text = render_series_exposition(store, 20.0, 20.0);
  ASSERT_FALSE(text.empty());
  std::istringstream in(text);
  std::string line;
  bool saw_median = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // name{labels} value -- one space, finite number.
    const std::size_t brace = line.find('}');
    ASSERT_NE(brace, std::string::npos) << line;
    ASSERT_EQ(line[brace + 1], ' ') << line;
    const double v = std::stod(line.substr(brace + 2));
    EXPECT_TRUE(std::isfinite(v)) << line;
    if (line.find("stat=\"median\"") != std::string::npos) saw_median = true;
  }
  EXPECT_TRUE(saw_median);
}

TEST(SeriesExport, ResampleAndSparkline) {
  std::vector<SeriesPoint> pts;
  for (int i = 0; i < 100; ++i)
    pts.push_back({static_cast<Seconds>(i), i < 50 ? 0.0 : 1.0});
  const std::vector<double> cols = resample_mean(pts, 0, 100, 10);
  ASSERT_EQ(cols.size(), 10u);
  EXPECT_DOUBLE_EQ(cols.front(), 0.0);
  EXPECT_DOUBLE_EQ(cols.back(), 1.0);

  const std::string sl = sparkline({0.0, 1.0, std::nan("")}, 0.0, 1.0);
  EXPECT_NE(sl.find(' '), std::string::npos);  // NaN renders blank
  EXPECT_FALSE(sl.empty());

  // Empty slices come back NaN, not zero.
  const std::vector<double> sparse =
      resample_mean({{0.0, 5.0}}, 0, 100, 4);
  EXPECT_TRUE(std::isnan(sparse[3]));
}

// ---------------------------------------------------------------------
// Recorder JSONL export
// ---------------------------------------------------------------------

TEST(RecorderJsonl, EscapesAndStructuresEvents) {
  FlightRecorder rec(8);
  rec.record(EventSeverity::kWarn, "svc", "weird",
             "quote \" backslash \\ newline \n tab \t end", 1.5);
  rec.record(EventSeverity::kInfo, "svc", "plain", "ok", 2.0);
  const std::string jsonl = rec.dump_jsonl();
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2u);
  // Raw control characters must not survive inside the JSON strings.
  EXPECT_NE(jsonl.find("\\\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\\\"), std::string::npos);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  EXPECT_NE(jsonl.find("\\t"), std::string::npos);
  EXPECT_NE(jsonl.find("\"model_time\":1.500000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"severity\":\"warn\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Cascade internals worth pinning down
// ---------------------------------------------------------------------

TEST(RollupCascade, BoundedScratchSurvivesDenseBuckets) {
  // 10,000 samples into a single 10 s bucket: the open-bucket scratch
  // must compact instead of growing without bound, and the sealed
  // summary must still be right on the exact fields.
  RollupCascade c;
  for (int i = 0; i < 10000; ++i)
    c.append(5.0, static_cast<double>(i % 100));
  c.append(15.0, 0.0);  // crosses the boundary; seals bucket [0, 10)
  const std::vector<BucketSummary> sealed = c.sealed(0);
  ASSERT_FALSE(sealed.empty());
  const BucketSummary& b = sealed.back();
  EXPECT_EQ(b.count, 10000u);
  EXPECT_DOUBLE_EQ(b.q.min, 0.0);
  EXPECT_DOUBLE_EQ(b.q.max, 99.0);
  EXPECT_NEAR(b.mean, 49.5, 0.01);
  EXPECT_LT(c.memory_bytes(), 512u * 1024u);
}

TEST(RollupCascade, CascadesToCoarserLevels) {
  RollupCascade c;  // 10 s -> 60 s
  Seconds t = 0;
  for (int i = 0; i < 200; ++i) c.append(t += 2.0, 1.0);  // 400 s
  EXPECT_GT(c.sealed(0).size(), 0u);
  EXPECT_GT(c.sealed(1).size(), 0u);  // at least 6 minutes sealed
  for (const BucketSummary& b : c.sealed(1)) {
    EXPECT_DOUBLE_EQ(b.width, 60.0);
    EXPECT_DOUBLE_EQ(b.mean, 1.0);
  }
}

// ---------------------------------------------------------------------
// Cost bounds: memory by capacity, append cost against a query
// ---------------------------------------------------------------------

TEST(TimeSeries, DayOfTwoSecondSamplesHoldsUnder256KiB) {
  // Retention is bounded by the raw ring plus the rollup rings, far
  // below the ~676 KB a naive 43,200-sample history would hold.
  TimeSeries ts;
  Seconds t = 0;
  for (int i = 0; i < 43200; ++i) ts.append(t += 2.0, 0.5);
  EXPECT_LT(ts.memory_bytes(), 256u * 1024u);
}

/// Client-observed p50 of the service's capacity workload on the
/// observability-wired CMU harness: 4 clients x 250 graph queries
/// against 4 workers, under background traffic.
std::chrono::nanoseconds service_query_p50() {
  apps::CmuHarness h;
  h.start(6.0);
  netsim::CbrTraffic background(h.sim(), "m-5", "m-8", mbps(20), 4.0);
  service::QueryService::Options so;
  so.workers = 4;
  so.queue_capacity = 64;
  so.default_deadline = std::chrono::milliseconds(2000);
  so.staleness_slo = 1e9;
  so.poll_interval = std::chrono::milliseconds(5);
  auto svc = h.serve(so);
  std::vector<std::vector<std::chrono::nanoseconds>> per_client(4);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string>& hosts = h.hosts();
      for (std::size_t i = 0; i < 250; ++i) {
        service::GraphQuery q;
        q.nodes = {hosts[(i + c) % hosts.size()],
                   hosts[(i + c + 3) % hosts.size()]};
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok = svc->get_graph(std::move(q)).meta.ok();
        if (ok)
          per_client[c].push_back(std::chrono::steady_clock::now() - t0);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  svc->stop();
  std::vector<std::chrono::nanoseconds> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  EXPECT_FALSE(all.empty());
  std::sort(all.begin(), all.end());
  return all.empty() ? std::chrono::nanoseconds(0) : all[all.size() / 2];
}

TEST(TelemetryTiming, AppendCostsUnderFivePercentOfAServiceQuery) {
  // Steady state: the raw ring is full and the cascade seals buckets.
  TimeSeries ts;
  Seconds t = 0;
  for (int i = 0; i < 10000; ++i) ts.append(t += 2.0, 0.5);
  constexpr int kAppends = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kAppends; ++i)
    ts.append(t += 2.0, static_cast<double>(i % 97));
  const std::chrono::duration<double, std::nano> append =
      (std::chrono::steady_clock::now() - t0) / kAppends;
  const std::chrono::duration<double, std::nano> query = service_query_p50();
  if (remos::test::kTimingChecked) {
    EXPECT_LE(append.count(), 0.05 * query.count())
        << "append " << append.count() << " ns, query p50 " << query.count()
        << " ns";
  }
}

}  // namespace
}  // namespace remos::obs
