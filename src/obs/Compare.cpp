//===- obs/Compare.cpp ----------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Compare.h"

#include "obs/Report.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

using namespace bpcr;

bool bpcr::globMatch(const std::string &Pattern, const std::string &Name) {
  // Iterative '*' glob with backtracking (no '?', no classes).
  size_t P = 0, N = 0, Star = std::string::npos, Mark = 0;
  while (N < Name.size()) {
    if (P < Pattern.size() &&
        (Pattern[P] == Name[N])) {
      ++P;
      ++N;
    } else if (P < Pattern.size() && Pattern[P] == '*') {
      Star = P++;
      Mark = N;
    } else if (Star != std::string::npos) {
      P = Star + 1;
      N = ++Mark;
    } else {
      return false;
    }
  }
  while (P < Pattern.size() && Pattern[P] == '*')
    ++P;
  return P == Pattern.size();
}

std::vector<CompareRule> bpcr::defaultCompareRules() {
  // Wall-clock metrics vary run to run and machine to machine: report them,
  // never gate on them unless a threshold file opts in. Everything else in
  // the reports is deterministic for a fixed (workload, seed, events)
  // configuration, so the default gate is exact equality.
  std::vector<CompareRule> Rules;
  Rules.push_back({"phases.*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  Rules.push_back({"*_ns*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  Rules.push_back({"*per_sec*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  // Span sampling drops depend on tracing configuration, not the workload.
  Rules.push_back(
      {"counters.obs.trace.*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  // Pool telemetry (queue depth, utilization) varies with scheduling.
  Rules.push_back({"gauges.pool.*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  // So do the share of a streamed trace walked during its run, the share
  // of that run spent on a CPU, and the page faults the interpreter takes.
  Rules.push_back(
      {"*overlap_share*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  Rules.push_back(
      {"*run_cpu_share*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  Rules.push_back(
      {"*minor_faults*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  // In the profile section only the span-open counts are schedule- and
  // machine-independent; recorded counts, times, RSS and allocator bytes
  // all vary with thread count, clock or stdlib version.
  Rules.push_back({"profile.categories.*.opened", 0.0, DeltaDirection::Both,
                   /*Skip=*/false});
  Rules.push_back({"profile.*", 0.0, DeltaDirection::Both, /*Skip=*/true});
  Rules.push_back({"*", 0.0, DeltaDirection::Both, /*Skip=*/false});
  return Rules;
}

namespace {

void flattenInto(const JsonValue &V, const std::string &Prefix,
                 std::vector<std::pair<std::string, double>> &Out) {
  if (V.isNumber()) {
    Out.emplace_back(Prefix, V.asDouble());
    return;
  }
  if (V.kind() != JsonValue::Kind::Object)
    return; // arrays (per-branch decisions) and strings are not metrics
  for (const auto &[Key, Child] : V.members())
    flattenInto(Child, Prefix.empty() ? Key : Prefix + "." + Key, Out);
}

const char *directionName(DeltaDirection D) {
  switch (D) {
  case DeltaDirection::Up:
    return "up";
  case DeltaDirection::Down:
    return "down";
  case DeltaDirection::Both:
    return "both";
  }
  return "<bad>";
}

/// Context fields whose mismatch makes a comparison suspect but not
/// invalid.
void noteContextDiffs(const JsonValue &OldDoc, const JsonValue &NewDoc,
                      CompareResult &R) {
  for (const char *Key : {"tool", "command", "workload"}) {
    const JsonValue *O = OldDoc.find(Key), *N = NewDoc.find(Key);
    std::string OS = O ? O->asString() : "<absent>";
    std::string NS = N ? N->asString() : "<absent>";
    if (OS != NS)
      R.Warnings.push_back(std::string(Key) + " differs: '" + OS +
                           "' vs '" + NS + "'");
  }
  for (const char *Key : {"seed", "events"}) {
    const JsonValue *O = OldDoc.find(Key), *N = NewDoc.find(Key);
    int64_t OI = O ? O->asInt() : 0;
    int64_t NI = N ? N->asInt() : 0;
    if (OI != NI)
      R.Warnings.push_back(std::string(Key) + " differs: " +
                           std::to_string(OI) + " vs " +
                           std::to_string(NI));
  }
}

std::string formatValue(double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

std::string formatDelta(const MetricDelta &D) {
  if (D.MissingOld)
    return "added";
  if (D.MissingNew)
    return "removed";
  if (std::isinf(D.RelDelta))
    return "inf";
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%+.2f%%", D.RelDelta * 100.0);
  return Buf;
}

} // namespace

std::vector<std::pair<std::string, double>>
bpcr::flattenReportMetrics(const JsonValue &Report) {
  std::vector<std::pair<std::string, double>> Out;
  if (const JsonValue *M = Report.find("metrics"))
    flattenInto(*M, "", Out);
  if (const JsonValue *P = Report.find("pipeline")) {
    std::vector<std::pair<std::string, double>> Pipe;
    flattenInto(*P, "pipeline", Pipe);
    Out.insert(Out.end(), Pipe.begin(), Pipe.end());
  }
  if (const JsonValue *B = Report.find("branches")) {
    // The "top" array (ordering churns with ties) is skipped like all
    // arrays; "by_id" leaves are stable per-branch metrics.
    std::vector<std::pair<std::string, double>> Br;
    flattenInto(*B, "branches", Br);
    Out.insert(Out.end(), Br.begin(), Br.end());
  }
  if (const JsonValue *T = Report.find("timeline")) {
    // The full "windows" array is plot data and skipped like all arrays;
    // the scalar summary and the per-phase objects are stable and gated.
    std::vector<std::pair<std::string, double>> Tl;
    flattenInto(*T, "timeline", Tl);
    Out.insert(Out.end(), Tl.begin(), Tl.end());
  }
  if (const JsonValue *P = Report.find("profile")) {
    // The rss_samples array is plot data and skipped like all arrays; the
    // category/site/allocator scalars flatten, and the default rules gate
    // only the schedule-independent opened counts.
    std::vector<std::pair<std::string, double>> Pr;
    flattenInto(*P, "profile", Pr);
    Out.insert(Out.end(), Pr.begin(), Pr.end());
  }
  return Out;
}

CompareResult bpcr::compareReports(const JsonValue &OldDoc,
                                   const JsonValue &NewDoc,
                                   const CompareOptions &Opts) {
  CompareResult R;

  const JsonValue *Docs[2] = {&OldDoc, &NewDoc};
  const char *Labels[2] = {"old", "new"};
  int64_t Schemas[2] = {0, 0};
  for (int K = 0; K < 2; ++K) {
    const char *Label = Labels[K];
    const JsonValue *V = Docs[K]->find("schema_version");
    if (!V || !V->isNumber())
      R.Errors.push_back(std::string(Label) +
                         " report has no schema_version (not a bpcr run "
                         "report?)");
    else if (V->asInt() < MinReportSchemaVersion ||
             V->asInt() > ReportSchemaVersion)
      R.Errors.push_back(std::string(Label) + " report has schema_version " +
                         std::to_string(V->asInt()) + ", this tool speaks " +
                         std::to_string(MinReportSchemaVersion) + ".." +
                         std::to_string(ReportSchemaVersion));
    else
      Schemas[K] = V->asInt();
  }
  if (!R.Errors.empty())
    return R;
  // Differing (but supported) schemas diff fine — sections absent from one
  // side surface as added/removed metrics — but deserve a loud note so a
  // schema skew is never mistaken for a genuine metric change.
  if (Schemas[0] != Schemas[1])
    R.Warnings.push_back(
        "schema versions differ: old=" + std::to_string(Schemas[0]) +
        " new=" + std::to_string(Schemas[1]) +
        "; metrics absent from one schema appear as added/removed");

  noteContextDiffs(OldDoc, NewDoc, R);

  std::map<std::string, std::pair<const double *, const double *>> Union;
  auto OldFlat = flattenReportMetrics(OldDoc);
  auto NewFlat = flattenReportMetrics(NewDoc);
  for (const auto &[Name, Val] : OldFlat)
    Union[Name].first = &Val;
  for (const auto &[Name, Val] : NewFlat)
    Union[Name].second = &Val;

  std::vector<CompareRule> Rules = Opts.Rules;
  for (CompareRule &Def : defaultCompareRules())
    Rules.push_back(std::move(Def));
  // User-supplied rules (the first Opts.Rules.size() entries) that match
  // nothing are usually typos in the threshold file — warn rather than let
  // the intended gate silently not exist.
  std::vector<bool> RuleMatched(Rules.size(), false);

  for (const auto &[Name, Vals] : Union) {
    MetricDelta D;
    D.Name = Name;
    D.MissingOld = Vals.first == nullptr;
    D.MissingNew = Vals.second == nullptr;
    D.Old = Vals.first ? *Vals.first : 0.0;
    D.New = Vals.second ? *Vals.second : 0.0;

    // The built-in "*" rule guarantees a match.
    const CompareRule *Rule = &Rules.back();
    for (size_t I = 0; I < Rules.size(); ++I)
      if (globMatch(Rules[I].Pattern, Name)) {
        Rule = &Rules[I];
        RuleMatched[I] = true;
        break;
      }
    D.RulePattern = Rule->Pattern;
    D.Threshold = Rule->MaxRelDelta;
    D.Direction = Rule->Direction;
    D.Skipped = Rule->Skip;

    if (D.MissingOld || D.MissingNew) {
      // A gated metric vanishing is a regression (the gate would otherwise
      // be dodged by deleting the metric); a new metric has no baseline
      // yet and passes until the baseline is refreshed.
      D.RelDelta = 0.0;
      D.Regressed = !D.Skipped && D.MissingNew;
    } else {
      double Delta = D.New - D.Old;
      if (D.Old != 0.0)
        D.RelDelta = Delta / std::fabs(D.Old);
      else
        D.RelDelta = Delta == 0.0 ? 0.0
                     : Delta > 0.0 ? HUGE_VAL
                                   : -HUGE_VAL;
      if (!D.Skipped) {
        constexpr double Eps = 1e-12;
        switch (D.Direction) {
        case DeltaDirection::Up:
          D.Regressed = D.RelDelta > D.Threshold + Eps;
          break;
        case DeltaDirection::Down:
          D.Regressed = D.RelDelta < -(D.Threshold + Eps);
          break;
        case DeltaDirection::Both:
          D.Regressed = std::fabs(D.RelDelta) > D.Threshold + Eps;
          break;
        }
      }
    }
    if (D.Regressed)
      ++R.Regressions;
    R.Deltas.push_back(std::move(D));
  }

  for (size_t I = 0; I < Opts.Rules.size(); ++I)
    if (!RuleMatched[I])
      R.Warnings.push_back("threshold rule '" + Opts.Rules[I].Pattern +
                           "' matched no metrics");
  return R;
}

bool bpcr::parseThresholdRules(const std::string &Text, CompareOptions &Opts,
                               std::string &Error) {
  JsonValue Doc = parseJson(Text, Error);
  if (!Error.empty())
    return false;
  if (Doc.kind() != JsonValue::Kind::Object) {
    Error = "threshold file must be a JSON object";
    return false;
  }

  auto ParseRule = [&Error](const JsonValue &J, const std::string &Where,
                            CompareRule &Rule) {
    if (J.kind() == JsonValue::Kind::Int ||
        J.kind() == JsonValue::Kind::Double) {
      Rule.MaxRelDelta = J.asDouble();
      if (Rule.MaxRelDelta < 0.0) {
        Error = Where + ": max_rel_delta must be >= 0";
        return false;
      }
      return true;
    }
    if (J.kind() != JsonValue::Kind::Object) {
      Error = Where + ": rule must be a number or an object";
      return false;
    }
    for (const auto &[Key, Val] : J.members()) {
      if (Key == "pattern") {
        if (Val.kind() != JsonValue::Kind::String || Val.asString().empty()) {
          Error = Where + ": 'pattern' must be a non-empty string";
          return false;
        }
        Rule.Pattern = Val.asString();
      } else if (Key == "max_rel_delta") {
        if (!Val.isNumber() || Val.asDouble() < 0.0) {
          Error = Where + ": 'max_rel_delta' must be a number >= 0";
          return false;
        }
        Rule.MaxRelDelta = Val.asDouble();
      } else if (Key == "direction") {
        const std::string &S = Val.asString();
        if (S == "up")
          Rule.Direction = DeltaDirection::Up;
        else if (S == "down")
          Rule.Direction = DeltaDirection::Down;
        else if (S == "both")
          Rule.Direction = DeltaDirection::Both;
        else {
          Error = Where + ": 'direction' must be \"up\", \"down\" or "
                          "\"both\"";
          return false;
        }
      } else if (Key == "skip") {
        if (Val.kind() != JsonValue::Kind::Bool) {
          Error = Where + ": 'skip' must be a boolean";
          return false;
        }
        Rule.Skip = Val.asBool();
      } else {
        Error = Where + ": unknown key '" + Key + "'";
        return false;
      }
    }
    return true;
  };

  for (const auto &[Key, Val] : Doc.members()) {
    if (Key == "rules") {
      if (Val.kind() != JsonValue::Kind::Array) {
        Error = "'rules' must be an array";
        return false;
      }
      for (size_t I = 0; I < Val.size(); ++I) {
        CompareRule Rule;
        std::string Where = "rules[" + std::to_string(I) + "]";
        if (!ParseRule(Val.at(I), Where, Rule))
          return false;
        if (Rule.Pattern.empty()) {
          Error = Where + ": missing 'pattern'";
          return false;
        }
        Opts.Rules.push_back(std::move(Rule));
      }
    } else if (Key == "default") {
      CompareRule Rule;
      if (!ParseRule(Val, "'default'", Rule))
        return false;
      // A 'default' entry may not override the pattern.
      Rule.Pattern = std::string("*");
      Opts.Rules.push_back(std::move(Rule));
    } else {
      Error = "unknown top-level key '" + Key +
              "' (expected 'rules' and/or 'default')";
      return false;
    }
  }
  return true;
}

std::string bpcr::renderCompareResult(const CompareResult &R) {
  std::string Out;
  for (const std::string &W : R.Warnings)
    Out += "warning: " + W + "\n";
  for (const std::string &E : R.Errors)
    Out += "error: " + E + "\n";
  if (!R.Errors.empty())
    return Out;

  TablePrinter Table("Report comparison (relative deltas vs. thresholds)");
  Table.setHeader({"metric", "old", "new", "delta", "threshold", "status"});
  unsigned Unchanged = 0, Shown = 0, Skipped = 0;
  for (const MetricDelta &D : R.Deltas) {
    if (D.Skipped)
      ++Skipped;
    bool Changed = D.MissingOld || D.MissingNew || D.RelDelta != 0.0;
    if (!Changed && !D.Regressed) {
      ++Unchanged;
      continue;
    }
    char Thr[64];
    if (D.Skipped)
      std::snprintf(Thr, sizeof(Thr), "(skip)");
    else
      std::snprintf(Thr, sizeof(Thr), "%.4g %s", D.Threshold,
                    directionName(D.Direction));
    Table.addRow({D.Name, D.MissingOld ? "-" : formatValue(D.Old),
                  D.MissingNew ? "-" : formatValue(D.New), formatDelta(D),
                  Thr,
                  D.Regressed ? "FAIL" : (D.Skipped ? "skip" : "ok")});
    ++Shown;
  }
  if (Shown)
    Out += Table.render() + "\n";

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%zu metrics compared: %u changed, %u unchanged (%u "
                "report-only); %u regression%s\n",
                R.Deltas.size(), Shown, Unchanged, Skipped, R.Regressions,
                R.Regressions == 1 ? "" : "s");
  Out += Buf;
  return Out;
}

JsonValue bpcr::compareResultJson(const CompareResult &R) {
  JsonValue Doc = JsonValue::object();
  Doc.set("ok", JsonValue::boolean(R.ok()));
  Doc.set("regressions",
          JsonValue::integer(static_cast<int64_t>(R.Regressions)));
  Doc.set("metrics_compared",
          JsonValue::integer(static_cast<int64_t>(R.Deltas.size())));

  JsonValue Errors = JsonValue::array();
  for (const std::string &E : R.Errors)
    Errors.push(JsonValue::str(E));
  Doc.set("errors", std::move(Errors));

  JsonValue Warnings = JsonValue::array();
  for (const std::string &W : R.Warnings)
    Warnings.push(JsonValue::str(W));
  Doc.set("warnings", std::move(Warnings));

  JsonValue Deltas = JsonValue::array();
  for (const MetricDelta &D : R.Deltas) {
    JsonValue J = JsonValue::object();
    J.set("name", JsonValue::str(D.Name));
    if (!D.MissingOld)
      J.set("old", JsonValue::number(D.Old));
    if (!D.MissingNew)
      J.set("new", JsonValue::number(D.New));
    // JSON has no infinity; a zero->nonzero jump serializes as "inf".
    if (std::isinf(D.RelDelta))
      J.set("rel_delta", JsonValue::str(D.RelDelta > 0 ? "inf" : "-inf"));
    else
      J.set("rel_delta", JsonValue::number(D.RelDelta));
    J.set("rule", JsonValue::str(D.RulePattern));
    J.set("threshold", JsonValue::number(D.Threshold));
    J.set("direction", JsonValue::str(directionName(D.Direction)));
    const char *Status = D.Regressed    ? "fail"
                         : D.Skipped    ? "skip"
                         : D.MissingOld ? "added"
                         : D.MissingNew ? "removed"
                                        : "ok";
    J.set("status", JsonValue::str(Status));
    Deltas.push(std::move(J));
  }
  Doc.set("deltas", std::move(Deltas));
  return Doc;
}
