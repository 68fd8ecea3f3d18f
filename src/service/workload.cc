#include "service/workload.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>

#include "common/timer.h"

namespace dbim {

namespace {

enum class OpKind { kInsert, kDelete, kUpdate, kEvaluate };

struct Outstanding {
  std::string tag;
  OpKind kind;
  Timer issued;
  FactId predicted_id = 0;  // predict_ids mode: the id this INSERT must get
};

/// Mirror of Database::Insert/Delete id assignment (minimal free id, else
/// high-water mark) — what predict_ids mode runs against.
struct IdSimulation {
  std::set<FactId> free_ids;
  FactId next_id = 0;

  FactId Insert() {
    if (!free_ids.empty()) {
      const FactId id = *free_ids.begin();
      free_ids.erase(free_ids.begin());
      return id;
    }
    return next_id++;
  }
  void Delete(FactId id) { free_ids.insert(id); }
};

}  // namespace

bool RunServiceWorkload(ServiceClient& client, const std::string& session,
                        size_t num_ops, uint64_t seed,
                        const ServiceWorkloadOptions& options,
                        ServiceWorkloadResult* result, std::string* error) {
  *result = ServiceWorkloadResult();
  Rng rng(seed);
  // Ids available for delete/update draws: learned from awaited INSERT
  // replies by default, predicted at issue time under predict_ids.
  std::vector<FactId> live;
  IdSimulation sim;
  std::deque<Outstanding> outstanding;
  const size_t depth = std::max<size_t>(1, options.pipeline_depth);

  auto complete_one = [&]() -> bool {
    Outstanding op = std::move(outstanding.front());
    outstanding.pop_front();
    AwaitedResponse response;
    if (!client.Await(op.tag, &response, error)) return false;
    result->latencies_ms.push_back(op.issued.Millis());
    if (!response.ok()) {
      if (response.final.error_code == "BUSY" && !options.predict_ids) {
        // A rejected op was never applied, so ids stay consistent: deletes
        // only ever name awaited inserts. Under predict_ids a rejection
        // would desync the simulation, so it falls through to the error
        // path — predict-mode callers size the queue to never reject.
        ++result->num_busy;
        return true;
      }
      *error = response.final.error_code + ": " +
               response.final.error_message;
      return false;
    }
    ++result->num_ok;
    if (op.kind == OpKind::kInsert) {
      FactId got = 0;
      if (!DecodeCounts(response.final.args, error, &got)) {
        *error = "INSERT reply: " + *error;
        return false;
      }
      if (options.predict_ids) {
        if (got != op.predicted_id) {
          *error = "predicted insert id " + std::to_string(op.predicted_id) +
                   " but server assigned " + std::to_string(got) +
                   " (session not exclusively owned?)";
          return false;
        }
      } else {
        live.push_back(got);
      }
    } else if (op.kind == OpKind::kEvaluate) {
      ++result->num_evaluates;
      if (!DecodeReport(response.final.args, 0, &result->last_report,
                        error)) {
        *error = "EVALUATE reply: " + *error;
        return false;
      }
    }
    return true;
  };

  for (size_t i = 0; i < num_ops; ++i) {
    Request request;
    OpKind kind;
    FactId predicted_id = 0;
    const bool evaluate =
        options.evaluate_every > 0 &&
        i % options.evaluate_every == options.evaluate_every - 1;
    if (evaluate) {
      kind = OpKind::kEvaluate;
      request = Request::Evaluate(session);
    } else {
      const size_t draw = live.empty() ? 1 : rng.UniformIndex(4);
      auto random_value = [&]() {
        return Value(rng.UniformInt(0, options.domain - 1));
      };
      if (draw == 0) {
        kind = OpKind::kDelete;
        const size_t at = rng.UniformIndex(live.size());
        const FactId id = live[at];
        live.erase(live.begin() + static_cast<ptrdiff_t>(at));
        if (options.predict_ids) sim.Delete(id);
        request = Request::Delete(session, id);
      } else if (draw == 3) {
        kind = OpKind::kUpdate;
        const FactId id = live[rng.UniformIndex(live.size())];
        const AttrIndex attr =
            static_cast<AttrIndex>(rng.UniformIndex(options.arity));
        request = Request::Update(session, id, attr, random_value());
      } else {
        kind = OpKind::kInsert;
        std::vector<Value> values;
        values.reserve(options.arity);
        for (size_t a = 0; a < options.arity; ++a) {
          values.push_back(random_value());
        }
        if (options.predict_ids) {
          predicted_id = sim.Insert();
          live.push_back(predicted_id);
        }
        request = Request::Insert(session, std::move(values));
      }
    }
    const std::string tag = client.Issue(std::move(request), error);
    if (tag.empty()) return false;
    outstanding.push_back(Outstanding{tag, kind, Timer(), predicted_id});
    while (outstanding.size() >= depth) {
      if (!complete_one()) return false;
    }
  }
  while (!outstanding.empty()) {
    if (!complete_one()) return false;
  }
  return true;
}

double LatencyPercentile(std::vector<double> latencies_ms, double p) {
  if (latencies_ms.empty()) return 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double rank =
      std::ceil((p / 100.0) * static_cast<double>(latencies_ms.size()));
  const size_t index = rank <= 1.0
                           ? 0
                           : std::min(latencies_ms.size() - 1,
                                      static_cast<size_t>(rank) - 1);
  return latencies_ms[index];
}

}  // namespace dbim
