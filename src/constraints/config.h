// Constraint configuration files (Section 4.2.2, Listing 4.1).
//
// Constraints, their metadata and their affected methods are declared in an
// XML descriptor read at application deployment.  The <class> element names
// the application's constraint implementation class; a ConstraintFactory
// maps that name to a creator function (the C++ stand-in for instantiating
// a Java class reflectively).
//
// Supported descriptor shape:
//
//   <constraints>
//     <constraint name="..." type="HARD|SOFT|ASYNC|PRE|POST"
//                 priority="RELAXABLE|CRITICAL" contextObject="Y|N"
//                 minSatisfactionDegree="UNCHECKABLE|..." intraObject="Y|N">
//       <class>ImplementationClass</class>          <!-- or instead: -->
//       <ocl>self.soldTickets &lt;= self.seats</ocl>
//       <context-class>ContextClass</context-class>
//       <freshness class="SomeClass" maxAge="3"/>
//       <affected-methods>
//         <affected-method>
//           <context-preparation>
//             <preparation-class>CalledObjectIsContextObject
//                 |ReferenceIsContextObject|NoContextObject</preparation-class>
//             <params><param name="getter" value="getX"/></params>
//           </context-preparation>
//           <objectMethod name="setX">
//             <objectClass>SomeClass</objectClass>
//             <arguments><argument>string</argument></arguments>
//           </objectMethod>
//         </affected-method>
//       </affected-methods>
//     </constraint>
//   </constraints>
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "constraints/constraint.h"
#include "constraints/repository.h"
#include "util/errors.h"

namespace dedisys {

// -- minimal XML subset ------------------------------------------------------

struct XmlNode {
  std::string tag;
  std::map<std::string, std::string> attrs;
  std::vector<XmlNode> children;
  std::string text;

  [[nodiscard]] const XmlNode* child(const std::string& name) const {
    for (const auto& c : children) {
      if (c.tag == name) return &c;
    }
    return nullptr;
  }

  [[nodiscard]] const XmlNode& require_child(const std::string& name) const {
    const XmlNode* c = child(name);
    if (c == nullptr) {
      throw ConfigError("<" + tag + "> is missing child <" + name + ">");
    }
    return *c;
  }

  [[nodiscard]] std::vector<const XmlNode*> children_named(
      const std::string& name) const {
    std::vector<const XmlNode*> out;
    for (const auto& c : children) {
      if (c.tag == name) out.push_back(&c);
    }
    return out;
  }

  [[nodiscard]] std::string attr(const std::string& name,
                                 const std::string& fallback = "") const {
    auto it = attrs.find(name);
    return it == attrs.end() ? fallback : it->second;
  }

  [[nodiscard]] const std::string& require_attr(const std::string& name) const {
    auto it = attrs.find(name);
    if (it == attrs.end()) {
      throw ConfigError("<" + tag + "> is missing attribute " + name);
    }
    return it->second;
  }
};

/// Deepest element nesting parse_xml accepts (the root is level 1).
inline constexpr std::size_t kMaxXmlDepth = 256;

/// Parses a document with one root element.  Supports attributes,
/// nested elements, text content, comments and self-closing tags.  Throws
/// ConfigError on malformed input and on nesting deeper than kMaxXmlDepth.
[[nodiscard]] XmlNode parse_xml(std::string_view input);

// -- constraint factory --------------------------------------------------------

/// Maps <class> implementation names to constraint creator functions.
class ConstraintFactory {
 public:
  using Creator = std::function<ConstraintPtr(
      const std::string& name, ConstraintType type, ConstraintPriority prio)>;

  void register_class(const std::string& impl_class, Creator creator) {
    auto [it, inserted] = creators_.emplace(impl_class, std::move(creator));
    if (!inserted) {
      throw ConfigError("duplicate constraint class: " + impl_class);
    }
    (void)it;
  }

  [[nodiscard]] ConstraintPtr create(const std::string& impl_class,
                                     const std::string& name,
                                     ConstraintType type,
                                     ConstraintPriority prio) const {
    auto it = creators_.find(impl_class);
    if (it == creators_.end()) {
      throw ConfigError("unknown constraint class: " + impl_class);
    }
    return it->second(name, type, prio);
  }

 private:
  std::map<std::string, Creator> creators_;
};

/// Parses a descriptor and registers every declared constraint with the
/// repository.  Returns the number of constraints registered.
std::size_t load_constraints(std::string_view xml_text,
                             const ConstraintFactory& factory,
                             ConstraintRepository& repository);

}  // namespace dedisys
