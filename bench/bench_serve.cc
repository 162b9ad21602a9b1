// Serving-layer benchmark: read throughput against a *live* observatory.
//
// Starts a ServeDaemon on a generated substrate with the campaign driver
// looping (rounds=0), waits for the first epoch, then soaks
// /api/v1/links/top with keep-alive client threads for a fixed window and
// writes BENCH_serve.json (schema afixp-bench-serve/1): queries per second
// while campaign passes and epoch publishes are happening underneath is
// the number docs/SERVING.md quotes.  The snapshot hot path has no locks,
// so read throughput must not care that the writer is busy.
// tools/check_bench.sh runs the smoke size from CTest and validates the
// JSON; the committed full-workload record is gated too (>= 10k queries/s
// when the recording host had CPUs to spare).
//
//   bench_serve [--smoke] [--spec continent100] [--seconds S]
//               [--client-threads N] [--http-threads N] [--jobs N]
//               [--days D] [--out BENCH_serve.json]
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "analysis/africa.h"
#include "analysis/substrate.h"
#include "net/http.h"
#include "serve/serve.h"
#include "topo/gen.h"
#include "util/flags.h"
#include "util/strings.h"

namespace {

using namespace ixp;

struct SoakReport {
  std::string workload;
  std::string spec;
  int http_threads = 0;
  int client_threads = 0;
  double soak_seconds = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t errors = 0;
  double queries_per_sec = 0.0;
  std::uint64_t passes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t links = 0;
  unsigned host_cpus = 0;
};

void write_json(std::ostream& out, const SoakReport& r) {
  out << "{\n";
  out << strformat("  \"schema\": \"afixp-bench-serve/1\",\n");
  out << strformat("  \"workload\": \"%s\",\n", r.workload.c_str());
  out << strformat("  \"spec\": \"%s\",\n", r.spec.c_str());
  out << strformat("  \"http_threads\": %d,\n", r.http_threads);
  out << strformat("  \"client_threads\": %d,\n", r.client_threads);
  out << strformat("  \"soak_seconds\": %.3f,\n", r.soak_seconds);
  out << strformat("  \"queries\": %llu,\n",
                   static_cast<unsigned long long>(r.queries));
  out << strformat("  \"errors\": %llu,\n",
                   static_cast<unsigned long long>(r.errors));
  out << strformat("  \"queries_per_sec\": %.1f,\n", r.queries_per_sec);
  out << strformat("  \"passes\": %llu,\n",
                   static_cast<unsigned long long>(r.passes));
  out << strformat("  \"epochs\": %llu,\n",
                   static_cast<unsigned long long>(r.epochs));
  out << strformat("  \"links\": %llu,\n",
                   static_cast<unsigned long long>(r.links));
  out << strformat("  \"host_cpus\": %u\n", r.host_cpus);
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_serve",
              "live-observatory read-throughput benchmark (BENCH_serve.json)");
  flags.add_bool("smoke", false,
                 "CI-sized soak: paper's six VPs, one week, two seconds");
  flags.add_string("spec", "continent100",
                   "substrate preset to serve (paper6 = the six hand-written VPs)");
  flags.add_int("seconds", 10, "soak window length");
  flags.add_int("client-threads", 2,
                strformat("keep-alive client threads (1..%d)", analysis::kMaxThreadsFlag));
  flags.add_int("http-threads", 2,
                strformat("HTTP worker threads (1..%d)", analysis::kMaxThreadsFlag));
  flags.add_int("jobs", 0,
                strformat("fleet workers (0 = hardware concurrency, else 1..%d)",
                          analysis::kMaxThreadsFlag));
  flags.add_int("days", 0, "campaign length in days (0 = full calendar)");
  flags.add_string("out", "BENCH_serve.json", "output JSON path (empty = stdout)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  const auto http_threads = analysis::thread_count_from_flag(
      flags.get_int("http-threads"), /*zero_is_auto=*/false, "--http-threads", std::cerr);
  const auto client_threads = analysis::thread_count_from_flag(
      flags.get_int("client-threads"), /*zero_is_auto=*/false, "--client-threads", std::cerr);
  const auto jobs = analysis::thread_count_from_flag(flags.get_int("jobs"), /*zero_is_auto=*/true,
                                                     "--jobs", std::cerr);
  if (!http_threads || !client_threads || !jobs) return 2;

  const bool smoke = flags.get_bool("smoke");
  SoakReport report;
  report.workload = smoke ? "smoke" : "full";
  report.spec = smoke ? "paper6" : flags.get_string("spec");
  report.http_threads = *http_threads;
  report.client_threads = smoke ? 1 : *client_threads;
  report.host_cpus = std::thread::hardware_concurrency();
  const int soak_seconds =
      smoke ? 2 : static_cast<int>(flags.get_int("seconds"));

  serve::ServeOptions sopt;
  if (report.spec == "paper6") {
    sopt.specs = analysis::make_all_vps();
  } else {
    const std::optional<topo::TopoSpec> spec = topo::topo_spec_preset(report.spec);
    if (!spec) {
      std::cerr << "bench_serve: unknown substrate preset '" << report.spec << "'\n";
      return 2;
    }
    try {
      sopt.specs = analysis::generate_substrate(*spec);
    } catch (const std::exception& e) {
      std::cerr << "bench_serve: " << e.what() << "\n";
      return 1;
    }
  }
  sopt.campaign.round_interval = kMinute * 30;
  const auto length = analysis::campaign_length_from_days(
      flags.get_int("days"), analysis::latest_campaign_start(sopt.specs), "--days", std::cerr);
  if (!length) return 2;
  if (length->count() > 0) {
    sopt.campaign.duration_override = *length;
  } else if (smoke) {
    sopt.campaign.duration_override = kDay * 7;
  }
  sopt.jobs = *jobs;
  sopt.http_threads = report.http_threads;
  sopt.rounds = 0;  // keep passes coming until the soak window closes

  serve::ServeDaemon daemon(std::move(sopt));
  std::string err;
  if (!daemon.start(&err)) {
    std::cerr << "bench_serve: " << err << "\n";
    return 1;
  }
  std::cerr << "bench_serve: serving " << report.spec << " on 127.0.0.1:"
            << daemon.port() << ", waiting for the first epoch\n";
  while (daemon.epochs_published() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Soak: every client thread hammers the ranked-links endpoint over one
  // keep-alive connection while the campaign driver keeps publishing.
  std::atomic<bool> stop_clients{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(report.client_threads));
  const auto soak_begin = std::chrono::steady_clock::now();
  for (int t = 0; t < report.client_threads; ++t) {
    clients.emplace_back([&] {
      net::HttpClient client;
      int status = 0;
      std::string body;
      while (!stop_clients.load(std::memory_order_acquire)) {
        if (!client.connected() && !client.connect(daemon.port())) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (client.get("/api/v1/links/top?n=20", &status, &body) && status == 200) {
          queries.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(soak_seconds));
  stop_clients.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - soak_begin)
          .count();

  daemon.request_stop();
  if (daemon.wait() != 0) {
    std::cerr << "bench_serve: daemon exited non-zero\n";
    return 1;
  }

  report.soak_seconds = wall;
  report.queries = queries.load();
  report.errors = errors.load();
  report.queries_per_sec = wall > 0 ? static_cast<double>(report.queries) / wall : 0;
  report.passes = daemon.passes_completed();
  report.epochs = daemon.epochs_published();
  report.links = daemon.snapshot()->links.size();
  std::cerr << strformat(
      "bench_serve: %llu queries in %.2fs (%.0f/s), %llu errors, "
      "%llu passes, %llu epochs, %llu links\n",
      static_cast<unsigned long long>(report.queries), wall,
      report.queries_per_sec, static_cast<unsigned long long>(report.errors),
      static_cast<unsigned long long>(report.passes),
      static_cast<unsigned long long>(report.epochs),
      static_cast<unsigned long long>(report.links));

  const std::string out_path = flags.get_string("out");
  if (out_path.empty()) {
    write_json(std::cout, report);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  write_json(out, report);
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
