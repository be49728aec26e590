/// \file json.hpp
/// The one JSON writer of the stack: a minimal value type (the exploration
/// service's wire protocol, `ExplorationResult::degradation_json`) and the
/// two primitives every streaming writer uses — `json_quote` for strings and
/// `json_number` for numbers (trace exports, metrics, lint reports,
/// `Architecture::to_json`).
///
/// Determinism matters more than speed here: objects keep sorted keys and
/// numbers print with %.17g (exact double round-trip), so a response
/// serialized twice — or by two runs of the same solve — is byte-identical,
/// which the serve drill's bit-exactness checks rely on. Not a
/// general-purpose JSON library: no comments, no NaN/Inf literals (they
/// serialize as null), UTF-8 passthrough with \uXXXX decoding.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace archex::obs {

/// `s` as a quoted JSON string: quotes, backslashes and every control byte
/// escaped, other bytes (UTF-8) passed through.
[[nodiscard]] std::string json_quote(std::string_view s);
/// `v` as a JSON number: %.17g (an exact double round trip; integers below
/// 2^53 print without exponent or fraction), or null when `v` is not finite.
[[nodiscard]] std::string json_number(double v);

class Json {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;  // sorted -> deterministic dump

  Json() = default;
  Json(bool b) : type_(Type::Bool), bool_(b) {}                    // NOLINT
  Json(double v) : type_(Type::Number), num_(v) {}                 // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}                    // NOLINT
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}           // NOLINT
  Json(const char* s) : type_(Type::String), str_(s) {}            // NOLINT
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {} // NOLINT
  Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}        // NOLINT
  Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}      // NOLINT

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  [[nodiscard]] bool as_bool(bool dflt = false) const {
    return is_bool() ? bool_ : dflt;
  }
  [[nodiscard]] double as_number(double dflt = 0.0) const {
    return is_number() ? num_ : dflt;
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const Array& as_array() const { return arr_; }
  [[nodiscard]] const Object& as_object() const { return obj_; }

  /// Mutable accessors coerce the value's type (building responses).
  Array& arr() {
    type_ = Type::Array;
    return arr_;
  }
  Object& obj() {
    type_ = Type::Object;
    return obj_;
  }
  /// `v["key"] = ...` object building; coerces to Object.
  Json& operator[](const std::string& key) { return obj()[key]; }

  // --- object lookups (null/absent-tolerant, for request parsing) ---
  /// Member pointer, or null when this is not an object / has no such key.
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& dflt = {}) const;
  [[nodiscard]] double get_number(const std::string& key, double dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt) const;

  /// Serializes compactly (no whitespace), deterministically. Non-finite
  /// numbers become null — the wire format stays strict JSON.
  [[nodiscard]] std::string dump() const;

  /// Strict parse of a complete JSON document; trailing non-space input is
  /// an error. On failure returns nullopt and, when `err` is non-null, a
  /// one-line "offset N: reason" message.
  static std::optional<Json> parse(const std::string& text,
                                   std::string* err = nullptr);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace archex::obs
