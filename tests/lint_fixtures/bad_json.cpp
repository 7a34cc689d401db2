// Lint fixture: trips rule `json` only — string literals that spell a
// JSON member name, the mark of JSON built by concatenation.
#include <string>

namespace fixture {

inline std::string hand_built(long id, const std::string& name)
{
    std::string out = "{\"ok\":true";                   // LINT: json
    out += ", \"id\": " + std::to_string(id);           // LINT: json
    out += ",\"name\" :\"" + name + "\"}";              // LINT: json
    out += R"({"op":"ping"})";                          // LINT: json
    out += "{\"a\":1," "\"b\":2}";                      // LINT: json json
    return out;
}

inline std::string not_json(const std::string& key)
{
    // Quoted words, colons without a quoted name, and a name that is not
    // an identifier are fine.
    std::string out = "say \"hello\" twice";
    out += "key: value";
    out += "\"9lives\": x";
    out += "missing field \"" + key + "\"";
    return out;
}

}  // namespace fixture
