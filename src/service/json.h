// Minimal JSON value for the wlansim service protocol (newline-delimited
// JSON over a Unix-domain socket — see service/protocol.h).
//
// Why not a library: the container ships no JSON dependency, and the
// protocol needs one property most general-purpose parsers do not
// guarantee — numeric round-trips that preserve the engine's determinism
// contract. Doubles serialize with the shortest decimal representation
// that parses back to the identical bit pattern (core::append_shortest, the
// one number printer the scenario traces use too), and unsigned 64-bit
// integers (config seeds) keep an exact integer channel rather than being
// squeezed through a double's 53-bit mantissa.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wlansim::service {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  /// Insertion-ordered: dumps reproduce field order, so a serialized
  /// message is a deterministic function of how it was built.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  static Json boolean(bool b);
  /// A double. Integral values in [0, 2^53] also carry the exact-integer
  /// channel so they dump without a decimal point.
  static Json number(double v);
  /// An exact unsigned 64-bit integer (dumps all 20 digits when needed).
  static Json number_u64(std::uint64_t v);
  static Json string(std::string s);
  static Json array(Array items = {});
  static Json object(Object members = {});

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed access; throws std::runtime_error on a type mismatch (protocol
  /// handlers turn that into an error response).
  bool as_bool() const;
  double as_double() const;
  /// Exact when the value was parsed/built as an integer; a plain double
  /// converts only when integral and exactly representable.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const Json* find(std::string_view key) const;

  /// Building helpers (no-ops unless the value is the right container).
  void set(std::string key, Json v);
  void push_back(Json v);

  /// Serialize on one line (no newline appended) — ready for the
  /// newline-delimited wire format.
  std::string dump() const;

  /// Parse one complete JSON document; trailing whitespace is allowed,
  /// trailing garbage is not. Returns nullopt and fills `err` on failure.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* err = nullptr);

 private:
  /// dump() appending into one buffer, so nested values build no
  /// temporary strings.
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t u64_ = 0;
  bool has_u64_ = false;  ///< the exact-integer channel is authoritative
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace wlansim::service
