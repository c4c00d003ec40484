#include "core/report_writer.h"

#include <map>

#include "core/markup.h"
#include "core/query_describer.h"
#include "util/strings.h"

namespace aggchecker {
namespace core {

namespace {

std::string EscapeHtml(const std::string& s) {
  std::string out = strings::ReplaceAll(s, "&", "&amp;");
  out = strings::ReplaceAll(out, "<", "&lt;");
  out = strings::ReplaceAll(out, ">", "&gt;");
  return out;
}

constexpr const char* kCss = R"(
body { font-family: Georgia, serif; max-width: 52rem; margin: 2rem auto;
       line-height: 1.5; color: #1a1a1a; padding: 0 1rem; }
h1 { font-size: 1.6rem; } h2 { font-size: 1.2rem; margin-top: 1.6rem; }
.verified { background: #e2f4e2; color: #14601c; border-radius: 3px;
            padding: 0 2px; font-weight: 600; }
.flagged { background: #fbe3e4; color: #8f1d22; border-radius: 3px;
           padding: 0 2px; font-weight: 700; }
.claim-card { border: 1px solid #ddd; border-radius: 6px; margin: 0.8rem 0;
              padding: 0.6rem 0.9rem; font-family: Helvetica, sans-serif;
              font-size: 0.85rem; }
.claim-card.bad { border-color: #d9a0a4; background: #fdf7f7; }
.claim-card h3 { margin: 0 0 0.4rem; font-size: 0.95rem; }
table { border-collapse: collapse; width: 100%; }
td, th { text-align: left; padding: 2px 8px 2px 0; vertical-align: top; }
.prob { font-variant-numeric: tabular-nums; }
.match { color: #14601c; } .nomatch { color: #8f1d22; }
.summary { font-family: Helvetica, sans-serif; font-size: 0.85rem;
           color: #555; margin-bottom: 1.5rem; }
)";

}  // namespace

std::string WriteHtmlReport(const text::TextDocument& doc,
                            const CheckReport& report,
                            const std::string& title_note) {
  std::string out = "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  out += "<title>AggChecker report";
  if (!doc.title().empty()) out += ": " + EscapeHtml(doc.title());
  out += "</title>\n<style>" + std::string(kCss) + "</style></head>\n<body>\n";

  std::string note;
  if (!title_note.empty()) {
    note = " ";
    note += EscapeHtml(title_note);
  }
  out += strings::Format(
      "<p class=\"summary\">AggChecker checked %zu claim%s, flagged %zu as "
      "likely erroneous. %d EM iteration%s, %zu candidate queries "
      "evaluated, %.2fs.%s</p>\n",
      report.verdicts.size(), report.verdicts.size() == 1 ? "" : "s",
      report.NumFlagged(), report.em_iterations,
      report.em_iterations == 1 ? "" : "s", report.queries_evaluated,
      report.total_seconds, note.c_str());

  // The marked-up article. RenderMarkup emits markdown-ish headings with
  // HTML spans around claims; convert the heading lines.
  std::string marked = RenderMarkup(doc, report, MarkupStyle::kHtml);
  for (std::string& line : strings::Split(marked, '\n')) {
    if (strings::StartsWith(line, "!! ")) continue;  // appendix lines
    if (strings::StartsWith(line, "## ")) {
      out += "<h2>" + line.substr(3) + "</h2>\n";
    } else if (strings::StartsWith(line, "# ")) {
      out += "<h1>" + line.substr(2) + "</h1>\n";
    } else if (!strings::Trim(line).empty()) {
      out += "<p>" + line + "</p>\n";
    }
  }

  // Per-claim detail cards.
  out += "<h2>Claim details</h2>\n";
  for (const ClaimVerdict& v : report.verdicts) {
    out += strings::Format(
        "<div class=\"claim-card%s\">\n<h3>claim %s — \"%s\" — %s "
        "(correctness probability %.2f)</h3>\n<table>\n",
        v.likely_erroneous ? " bad" : "", EscapeHtml(v.claim.id).c_str(),
        EscapeHtml(v.claim.number.raw).c_str(),
        v.likely_erroneous ? "LIKELY ERRONEOUS" : "verified",
        v.correctness_probability);
    out += "<tr><th></th><th>p</th><th>query</th><th>result</th></tr>\n";
    size_t shown = 0;
    for (const auto& cand : v.top_queries) {
      if (++shown > 5) break;
      std::string result =
          cand.result.has_value() ? strings::Format("%g", *cand.result)
                                  : "—";
      out += strings::Format(
          "<tr><td>%zu.</td><td class=\"prob\">%.3f</td>"
          "<td>%s<br><small>%s</small></td>"
          "<td class=\"%s\">%s</td></tr>\n",
          shown, cand.probability,
          EscapeHtml(DescribeQuery(cand.query)).c_str(),
          EscapeHtml(cand.query.ToSql()).c_str(),
          cand.matches ? "match" : "nomatch", result.c_str());
    }
    out += "</table>\n</div>\n";
  }
  out += "</body></html>\n";
  return out;
}

}  // namespace core
}  // namespace aggchecker
