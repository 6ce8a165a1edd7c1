// perfbench: one measured run of one workload against the repository's
// libraries.
//
//   perfbench --workload <sync|query|wallet> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// The last line of standard output is one JSON object: the end-to-end
// metrics (host wall-clock, tracing off) with --trace 0, the per-layer
// metrics of a traced run with --trace 1. A failed correctness check marks
// the run incorrect and exits nonzero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace {

using perfbench::Options;

/// Every per-layer metric, with its unit; a workload that bypasses a layer
/// reports it as 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"btcnet.run_s", "s"},
    {"net.messages", "count"},
    {"net.bytes", "bytes"},
    {"mempool.rbf_replaced", "count"},
    {"adapter.handle_request_s", "s"},
    {"adapter.requests", "count"},
    {"adapter.blocks_per_response", "blocks"},
    {"adapter.block_request_retries", "count"},
    {"ic.rounds", "count"},
    {"ic.signatures", "count"},
    {"ic.sign_s", "s"},
    {"tecdsa.pool.exhaustion_stalls", "count"},
    {"canister.make_request_s", "s"},
    {"canister.process_response_s", "s"},
    {"canister.blocks_ingested", "count"},
    {"canister.txs_ingested", "count"},
    {"canister.delta.builds", "count"},
    {"canister.get_utxos_s", "s"},
    {"canister.get_balance_s", "s"},
    {"canister.get_utxos_p99_us", "us"},
    {"canister.get_balance_p99_us", "us"},
    {"canister.pages_per_read", "pages"},
    {"canister.delta.memo_hit_ratio", "ratio"},
    {"canister.send_transaction_s", "s"},
    {"canister.instructions_per_block", "instructions"},
    {"persist.checkpoint_bytes", "bytes"},
    {"persist.write_checkpoint_s", "s"},
    {"persist.from_checkpoint_s", "s"},
    {"utxo.resident_bytes_per_utxo", "bytes"},
    {"pool.tasks_executed", "count"},
    {"pool.threads", "count"},
    {"wallet.send_s", "s"},
    {"wallet.send_self_s", "s"},
    {"workload.op_p50_us", "us"},
    {"bench.unattributed_s", "s"},
    {"bench.trace_overhead_s", "s"},
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0 && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    int missed = perfbench::self_test();
    std::printf("%s\n", missed == 0 ? "self-test: every check fails on its corrupted value"
                                    : "self-test: FAILED");
    return missed == 0 ? 0 : 1;
  }
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sync|query|wallet> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n       perfbench --self-test\n");
    return 2;
  }
  perfbench::RunResult result;
  try {
    if (options.workload == "sync") {
      result = perfbench::run_sync(options);
    } else if (options.workload == "query") {
      result = perfbench::run_query(options);
    } else if (options.workload == "wallet") {
      result = perfbench::run_wallet(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) result.per_layer.try_emplace(name, 0.0, unit);
    perfbench::write_trace(options);
  }
  perfbench::print_result(result, options.trace);
  return result.correct ? 0 : 1;
}
