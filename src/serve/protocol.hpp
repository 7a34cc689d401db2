#pragma once
// Typed JSON job API of the daemon (DESIGN.md §3k).
//
// One request per connection, newline-delimited: the client writes a
// single-line JSON object, the daemon answers with a single-line JSON
// object carrying "ok" plus op-specific fields.  Reading and writing go
// through core/json (strict, depth-capped parser; compact streaming
// writer).
//
// Doubles are printed at shortest round-trip precision and integers
// exactly, so a spec survives the encode->decode round trip bit-exactly;
// the journal stores specs in this same encoding, which is why replayed
// jobs reconstruct identical volumes.

#include <string>

#include "core/json.hpp"
#include "serve/job.hpp"

namespace xct::serve {

/// The protocol's JSON tree (kept under its historical name).
using Json = core::Json;

// ---- JobSpec / JobStatus wire forms ------------------------------------

std::string encode_spec(const JobSpec& spec);
/// Throws std::invalid_argument on missing/ill-typed fields.
JobSpec decode_spec(const Json& j);

std::string encode_status(const JobStatus& st);
/// Stream a status as one JSON object value (the list reply's elements).
void write_status(core::json::Writer& w, const JobStatus& st);
JobStatus decode_status(const Json& j);

// ---- request envelope ---------------------------------------------------

/// A decoded client request.  `op` is one of: submit, status, list,
/// cancel, wait, fetch_slice, metrics, ping, shutdown.
struct Request {
    std::string op;
    JobSpec spec;          ///< submit
    JobId id = 0;          ///< status / cancel / wait / fetch_slice
    index_t slice = 0;     ///< fetch_slice
    double timeout_s = 60.0;  ///< wait
};

std::string encode_request(const Request& r);
Request decode_request(const std::string& line);

/// {"ok":false,"error":...} — the uniform failure envelope.
std::string encode_error(const std::string& message);

}  // namespace xct::serve
