#include "serve/protocol.hpp"

#include <sstream>
#include <stdexcept>

namespace xct::serve {

namespace {

using core::json::Writer;

const Json& member(const Json& j, const std::string& key)
{
    const Json* m = j.find(key);
    if (m == nullptr) throw std::invalid_argument("json: missing field \"" + key + "\"");
    return *m;
}

double num_or(const Json& j, const std::string& key, double fallback)
{
    const Json* m = j.find(key);
    return m != nullptr ? m->as_number(key) : fallback;
}

std::uint64_t u64_or(const Json& j, const std::string& key, std::uint64_t fallback)
{
    const Json* m = j.find(key);
    return m != nullptr ? m->as_u64(key) : fallback;
}

index_t index_or(const Json& j, const std::string& key, index_t fallback)
{
    const Json* m = j.find(key);
    return m != nullptr ? m->as_index(key) : fallback;
}

std::string str_or(const Json& j, const std::string& key, const std::string& fallback)
{
    const Json* m = j.find(key);
    return m != nullptr ? m->as_string(key) : fallback;
}

void write_spec(Writer& w, const JobSpec& spec)
{
    const CbctGeometry& g = spec.geometry;
    w.begin_object().key("geometry").begin_object();
    w.member("dso", g.dso).member("dsd", g.dsd).member("num_proj", g.num_proj);
    w.member("nu", g.nu).member("nv", g.nv).member("du", g.du).member("dv", g.dv);
    w.key("vol").begin_array().value(g.vol.x).value(g.vol.y).value(g.vol.z).end_array();
    w.member("dx", g.dx).member("dy", g.dy).member("dz", g.dz);
    w.member("scan_range", g.scan_range).end_object();
    w.member("phantom_seed", spec.phantom_seed).member("batches", spec.batches);
    w.member("device_capacity", spec.device_capacity);
    w.member("priority", to_string(spec.priority)).member("tenant", spec.tenant);
    w.member("deadline_s", spec.deadline_s).member("output", spec.output);
    w.end_object();
}

template <typename Fn>
std::string encode(Fn&& fill)
{
    std::ostringstream ss;
    Writer w(ss);
    fill(w);
    return ss.str();
}

}  // namespace

std::string encode_spec(const JobSpec& s) { return encode([&](Writer& w) { write_spec(w, s); }); }

JobSpec decode_spec(const Json& j)
{
    JobSpec spec;
    const Json& g = member(j, "geometry");
    spec.geometry.dso = member(g, "dso").as_number("dso");
    spec.geometry.dsd = member(g, "dsd").as_number("dsd");
    spec.geometry.num_proj = member(g, "num_proj").as_index("num_proj");
    spec.geometry.nu = member(g, "nu").as_index("nu");
    spec.geometry.nv = member(g, "nv").as_index("nv");
    spec.geometry.du = num_or(g, "du", 1.0);
    spec.geometry.dv = num_or(g, "dv", 1.0);
    const Json& vol = member(g, "vol");
    if (vol.type != Json::Type::Array || vol.array.size() != 3)
        throw std::invalid_argument("json: vol must be [nx, ny, nz]");
    spec.geometry.vol = Dim3{vol.array[0].as_index("vol"), vol.array[1].as_index("vol"),
                             vol.array[2].as_index("vol")};
    spec.geometry.dx = num_or(g, "dx", 1.0);
    spec.geometry.dy = num_or(g, "dy", 1.0);
    spec.geometry.dz = num_or(g, "dz", 1.0);
    spec.geometry.scan_range = num_or(g, "scan_range", spec.geometry.scan_range);
    spec.phantom_seed = u64_or(j, "phantom_seed", 0);
    spec.batches = index_or(j, "batches", 8);
    spec.device_capacity = u64_or(j, "device_capacity", std::uint64_t{64} << 20);
    spec.priority = priority_from(str_or(j, "priority", "normal"));
    spec.tenant = str_or(j, "tenant", "default");
    spec.deadline_s = num_or(j, "deadline_s", 0.0);
    spec.output = str_or(j, "output", "");
    return spec;
}

void write_status(Writer& w, const JobStatus& st)
{
    w.begin_object().member("id", st.id).member("state", to_string(st.state));
    w.member("tenant", st.tenant).member("priority", to_string(st.priority));
    w.member("reason", st.reason).member("progress", st.progress);
    w.member("total_slabs", st.total_slabs).member("completed_slabs", st.completed_slabs);
    w.member("predicted_s", st.predicted_s).member("device_bytes", st.device_bytes);
    w.member("output", st.output).end_object();
}

std::string encode_status(const JobStatus& st)
{
    return encode([&](Writer& w) { write_status(w, st); });
}

JobStatus decode_status(const Json& j)
{
    JobStatus st;
    st.id = member(j, "id").as_u64("id");
    const std::string& state = member(j, "state").as_string("state");
    const JobState states[] = {JobState::Queued,   JobState::Running, JobState::Done,
                               JobState::Cancelled, JobState::Rejected, JobState::Shed,
                               JobState::Failed};
    bool found = false;
    for (const JobState s : states)
        if (state == to_string(s)) {
            st.state = s;
            found = true;
        }
    if (!found) throw std::invalid_argument("json: unknown state \"" + state + "\"");
    st.tenant = str_or(j, "tenant", "");
    st.priority = priority_from(str_or(j, "priority", "normal"));
    st.reason = str_or(j, "reason", "");
    st.progress = num_or(j, "progress", 0.0);
    st.total_slabs = index_or(j, "total_slabs", 0);
    st.completed_slabs = index_or(j, "completed_slabs", 0);
    st.predicted_s = num_or(j, "predicted_s", 0.0);
    st.device_bytes = u64_or(j, "device_bytes", 0);
    st.output = str_or(j, "output", "");
    return st;
}

std::string encode_request(const Request& r)
{
    return encode([&](Writer& w) {
        w.begin_object().member("op", r.op);
        if (r.op == "submit") write_spec(w.key("spec"), r.spec);
        if (r.op == "status" || r.op == "cancel" || r.op == "wait" || r.op == "fetch_slice")
            w.member("id", r.id);
        if (r.op == "fetch_slice") w.member("slice", r.slice);
        if (r.op == "wait") w.member("timeout_s", r.timeout_s);
        w.end_object();
    });
}

Request decode_request(const std::string& line)
{
    const Json j = Json::parse(line);
    Request r;
    r.op = member(j, "op").as_string("op");
    if (r.op == "submit") r.spec = decode_spec(member(j, "spec"));
    if (r.op == "status" || r.op == "cancel" || r.op == "wait" || r.op == "fetch_slice")
        r.id = member(j, "id").as_u64("id");
    if (r.op == "fetch_slice") r.slice = member(j, "slice").as_index("slice");
    if (r.op == "wait") r.timeout_s = num_or(j, "timeout_s", 60.0);
    return r;
}

std::string encode_error(const std::string& message)
{
    return encode([&](Writer& w) {
        w.begin_object().member("ok", false).member("error", message).end_object();
    });
}

const char* to_string(Priority p)
{
    switch (p) {
        case Priority::Low: return "low";
        case Priority::Normal: return "normal";
        case Priority::High: return "high";
    }
    return "unknown";
}

Priority priority_from(const std::string& s)
{
    if (s == "low") return Priority::Low;
    if (s == "normal") return Priority::Normal;
    if (s == "high") return Priority::High;
    throw std::invalid_argument("priority must be low|normal|high, got \"" + s + "\"");
}

const char* to_string(JobState s)
{
    switch (s) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Done: return "done";
        case JobState::Cancelled: return "cancelled";
        case JobState::Rejected: return "rejected";
        case JobState::Shed: return "shed";
        case JobState::Failed: return "failed";
    }
    return "unknown";
}

bool is_terminal(JobState s)
{
    return s != JobState::Queued && s != JobState::Running;
}

}  // namespace xct::serve
