// Wire protocol of `dyngossip serve` / `dyngossip request`.
//
// Newline-delimited JSON over a unix-domain stream socket: the client sends
// exactly one single-line sweep request, the server answers with a line
// stream —
//
//   {"type":"accepted","trials":T,...}        echo of the resolved sweep
//   {"type":"row","trial":i,"seed":s,...}     one per trial, in trial order
//   {"type":"done","hits":H,"misses":M}       terminal summary
//   {"type":"error","message":"..."}          terminal failure (any point)
//
// Row payload fields mirror the run_axes_table columns (k, done, messages,
// TC, rounds, status, coverage, checksum) so a served sweep is diffable
// against a direct `dyngossip run` of the same grid; `cached` marks rows
// that never re-ran (result cache or in-flight dedup).  Line JSON was
// chosen over a length-prefixed framing because every existing artifact in
// this repo (traces, probes, the cache index) is line-oriented and
// jq-able; the framing cost is one '\n' scan per message.
#pragma once

#include <cstdint>
#include <string>

#include "cache/result_cache.hpp"
#include "common/types.hpp"
#include "sim/runner/json.hpp"

namespace dyngossip {

/// One sweep: `trials` runs of (algo × adversary × fault × shape), seeded
/// seed_base + trial.  Matches run_axes_table's per-row shape, so a client
/// passing that table's seed formula gets cache-identical keys.
struct SweepRequest {
  std::string algo = "single_source";
  std::string adversary;            ///< required
  std::string fault = "fault";      ///< inactive default
  std::size_t n = 0;                ///< required
  std::uint32_t k = 0;              ///< required
  std::size_t sources = 4;
  Round cap = 0;                    ///< 0: the 200·n·k default
  std::size_t trials = 1;
  std::uint64_t seed_base = 0;
};

/// Range-checks the full-width shape fields of a request, then narrows them
/// into `req`: the one check behind decode_sweep_request and the client,
/// so an out-of-range value is refused instead of wrapping into an accepted
/// one.  Throws std::runtime_error naming the first bad field.
void set_sweep_shape(SweepRequest& req, std::uint64_t n, std::uint64_t k,
                     std::uint64_t cap, std::uint64_t trials);

/// Serializes a request as its single-line wire form (no newline).
[[nodiscard]] std::string encode_sweep_request(const SweepRequest& req);

/// Parses + range-checks a request line.  Throws std::runtime_error with a
/// client-facing message on anything malformed (specs are validated by the
/// server against its registries, not here).
[[nodiscard]] SweepRequest decode_sweep_request(const std::string& line);

/// The "accepted" line echoing the resolved sweep.
[[nodiscard]] std::string encode_accepted(const SweepRequest& req);

/// One "row" line (see file comment).
[[nodiscard]] std::string encode_row(std::size_t trial, std::uint64_t seed,
                                     bool cached, const CachedResult& row);

/// The terminal "done" line.
[[nodiscard]] std::string encode_done(std::size_t hits, std::size_t misses);

/// A terminal "error" line.
[[nodiscard]] std::string encode_error(const std::string& message);

}  // namespace dyngossip
