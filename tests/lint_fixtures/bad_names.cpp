// Lint fixture: trips rule `names` only.  Metric and span literals below
// are deliberately NOT registered in src/core/names.hpp.
#include <string>

namespace fixture {

struct Counter {
    void add(long) {}
};
struct Registry {
    Counter& counter(const std::string&) { return c_; }
    Counter& gauge(const std::string&) { return c_; }
    Counter c_;
};
struct ScopedTrace {
    ScopedTrace(const char*, const char*, long) {}
};
struct Watchdog {
    template <typename F>
    void supervise(const char*, F&&) {}
};

inline long corrupt(const char*, char*) { return 0; }
inline void record_span(const char*, const char*, double, double) {}

inline void emit(Registry& reg)
{
    reg.counter("bogus.metric").add(1);             // LINT: names
    reg.gauge("made.up.gauge").add(2);              // LINT: names
    ScopedTrace trace("nocategory", "nospan", 0);   // LINT: names names
    corrupt("phantom.site", nullptr);               // LINT: names
    Watchdog wd;
    wd.supervise("no.such.section", [] {});         // LINT: names
    record_span("nocategory", "bogus.span", 0.0, 1.0);  // LINT: names names
    reg.counter("soak.bogus.jobs").add(1);          // LINT: names
    corrupt("serve.unregistered.site", nullptr);    // LINT: names
    reg.counter("serve.bogus.rejections").add(1);   // LINT: names
}

}  // namespace fixture
