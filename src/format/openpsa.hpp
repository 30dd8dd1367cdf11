// Open-PSA Model Exchange Format (MEF) interchange — the XML format used
// by open-source PSA/FTA tools (e.g. scram). Supported subset:
//
//   <opsa-mef>
//     <define-fault-tree name="...">
//       <define-gate name="g">
//         <or> | <and> | <atleast min="k">
//           <gate name="..."/> | <basic-event name="..."/> | <and>...</and>
//         </...>
//       </define-gate>
//       ...
//     </define-fault-tree>
//     <model-data>
//       <define-basic-event name="x"> <float value="0.2"/> </define-basic-event>
//     </model-data>
//   </opsa-mef>
//
// The top event is the first <define-gate> of the first fault tree (the
// common convention). `atleast` maps to the library's Vote gates. A nested
// connective becomes an anonymous gate named <parent>#<n>. Basic events
// without a <define-basic-event> entry default to probability 0; a
// probability declared for a gate is ignored. EventIndex follows
// <model-data> order, then first reference.
//
// The reader is one iterative pass over the document with no heap object
// per element. XML subset: elements, attributes in either quote, the five
// predefined entities (others are kept verbatim), comments and <?...?>
// declarations; character data is skipped. Elements nest at most 64 deep.
// Numbers must be all number: `min` a decimal count, `value` what std::stod
// reads, with surrounding spaces allowed. Every defect is a
// format::ParseError with its line and column.
#pragma once

#include <string>

#include "ft/fault_tree.hpp"

namespace fta::format {

/// Parses an Open-PSA MEF document into a validated fault tree. The
/// writer is format::to_open_psa.
ft::FaultTree parse_open_psa(const std::string& text);

}  // namespace fta::format
