//===- support/Json.h - Minimal JSON parser and writer ----------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, self-contained JSON implementation used for the StencilFlow
/// program-description format (paper Sec. II, Lst. 1).
///
/// Objects preserve insertion order so that emitted program descriptions are
/// deterministic and diffable. Parsing reports errors with line and column
/// information. No exceptions are used.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SUPPORT_JSON_H
#define STENCILFLOW_SUPPORT_JSON_H

#include "support/Error.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace stencilflow {
namespace json {

class Value;

/// An ordered JSON object: preserves insertion order on iteration while
/// providing O(log n) lookup by key.
class Object {
public:
  Object() = default;
  Object(Object &&) = default;
  Object &operator=(Object &&) = default;
  /// Deep copy (members are held by pointer for stable addresses).
  Object(const Object &Other) { *this = Other; }
  Object &operator=(const Object &Other);

  /// Returns the value for \p Key, or nullptr if absent.
  const Value *get(std::string_view Key) const;
  Value *get(std::string_view Key);

  /// Inserts or overwrites the value for \p Key.
  void set(std::string Key, Value Val);

  /// Returns true if \p Key is present.
  bool contains(std::string_view Key) const { return get(Key) != nullptr; }

  /// Number of members.
  size_t size() const { return Members.size(); }
  bool empty() const { return Members.empty(); }

  /// Iteration in insertion order.
  auto begin() const { return Members.begin(); }
  auto end() const { return Members.end(); }

private:
  std::vector<std::pair<std::string, std::unique_ptr<Value>>> Members;
};

/// Discriminates the type held by a \c Value.
enum class ValueKind { Null, Boolean, Number, String, Array, Object };

/// A JSON value: null, boolean, number, string, array, or object.
class Value {
public:
  Value() : Storage(std::monostate()) {}
  Value(std::nullptr_t) : Storage(std::monostate()) {}
  Value(bool B) : Storage(B) {}
  Value(double D) : Storage(D) {}
  Value(int I) : Storage(static_cast<double>(I)) {}
  Value(int64_t I) : Storage(static_cast<double>(I)) {}
  Value(size_t I) : Storage(static_cast<double>(I)) {}
  Value(std::string S) : Storage(std::move(S)) {}
  Value(const char *S) : Storage(std::string(S)) {}
  Value(std::vector<Value> A) : Storage(std::move(A)) {}
  Value(Object O) : Storage(std::move(O)) {}

  /// Returns the kind of the contained value.
  ValueKind kind() const {
    return static_cast<ValueKind>(Storage.index());
  }

  bool isNull() const { return kind() == ValueKind::Null; }
  bool isBoolean() const { return kind() == ValueKind::Boolean; }
  bool isNumber() const { return kind() == ValueKind::Number; }
  bool isString() const { return kind() == ValueKind::String; }
  bool isArray() const { return kind() == ValueKind::Array; }
  bool isObject() const { return kind() == ValueKind::Object; }

  /// Typed accessors; must only be called when the kind matches.
  bool getBoolean() const { return std::get<bool>(Storage); }
  double getNumber() const { return std::get<double>(Storage); }
  int64_t getInteger() const {
    return static_cast<int64_t>(std::get<double>(Storage));
  }
  const std::string &getString() const { return std::get<std::string>(Storage); }
  const std::vector<Value> &getArray() const {
    return std::get<std::vector<Value>>(Storage);
  }
  std::vector<Value> &getArray() { return std::get<std::vector<Value>>(Storage); }
  const Object &getObject() const { return std::get<Object>(Storage); }
  Object &getObject() { return std::get<Object>(Storage); }

  /// Serializes this value to compact JSON text.
  std::string toString() const;

  /// Serializes this value to indented, human-readable JSON text.
  std::string toPrettyString(unsigned Indent = 2) const;

private:
  std::variant<std::monostate, bool, double, std::string, std::vector<Value>,
               Object>
      Storage;
};

/// Deepest array/object nesting parse() accepts. Deeper text fails with
/// InvalidInput instead of exhausting the stack of the recursive parser.
inline constexpr int MaxNestingDepth = 256;

/// Parses JSON text. Errors include 1-based line:column positions.
Expected<Value> parse(std::string_view Text);

/// Reads and parses a JSON file from disk.
Expected<Value> parseFile(const std::string &Path);

} // namespace json
} // namespace stencilflow

#endif // STENCILFLOW_SUPPORT_JSON_H
