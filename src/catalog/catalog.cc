#include "catalog/catalog.h"

#include <map>

#include "common/str_util.h"
#include "object/builder.h"

namespace idl {

Value BuildCatalog(const Value& universe) {
  Value databases = Value::EmptySet();
  Value relations = Value::EmptySet();
  Value attributes = Value::EmptySet();

  if (universe.is_tuple()) {
    for (const auto& db : universe.fields()) {
      if (!db.value.is_tuple()) continue;
      databases.Insert(MakeTuple({{"db", Value::String(db.name)}}));
      for (const auto& rel : db.value.fields()) {
        if (!rel.value.is_set()) continue;
        // Attribute union + first-seen kind across (possibly heterogeneous)
        // elements.
        std::map<std::string, std::string> attrs;
        for (const auto& element : rel.value.elements()) {
          if (!element.is_tuple()) continue;
          for (const auto& field : element.fields()) {
            auto it = attrs.find(field.name);
            if (it == attrs.end()) {
              attrs.emplace(field.name,
                            field.value.is_null()
                                ? ""
                                : std::string(ValueKindName(field.value.kind())));
            } else if (it->second.empty() && !field.value.is_null()) {
              it->second = ValueKindName(field.value.kind());
            }
          }
        }
        relations.Insert(MakeTuple(
            {{"db", Value::String(db.name)},
             {"rel", Value::String(rel.name)},
             {"arity", Value::Int(static_cast<int64_t>(attrs.size()))},
             {"cardinality",
              Value::Int(static_cast<int64_t>(rel.value.SetSize()))}}));
        for (const auto& [attr, kind] : attrs) {
          attributes.Insert(
              MakeTuple({{"db", Value::String(db.name)},
                         {"rel", Value::String(rel.name)},
                         {"attr", Value::String(attr)},
                         {"kind", Value::String(
                                      kind.empty() ? "null" : kind)}}));
        }
      }
    }
  }

  return MakeTuple({{"databases", std::move(databases)},
                    {"relations", std::move(relations)},
                    {"attributes", std::move(attributes)}});
}

Result<Value> WithCatalog(const Value& universe, std::string_view name) {
  if (!universe.is_tuple()) {
    return TypeError("universe must be a tuple of databases");
  }
  if (universe.HasField(name)) {
    return AlreadyExists(StrCat("database '", name, "'"));
  }
  Value out = universe;
  out.SetField(name, BuildCatalog(universe));
  return out;
}

}  // namespace idl
