#include "ftmc/fleet/protocol.hpp"

namespace ftmc::fleet {

std::string hello_to_json(std::string_view worker) {
  return io::json::Object{}
      .add_string("type", "hello")
      .add_string("protocol", kProtocolVersion)
      .add_string("worker", worker)
      .str();
}

std::string lease_to_json(std::string_view worker) {
  return io::json::Object{}
      .add_string("type", "lease")
      .add_string("worker", worker)
      .str();
}

std::string result_to_json(std::string_view worker,
                           std::uint64_t lease_id,
                           const std::vector<ResultRecord>& records) {
  std::vector<std::string> items;
  items.reserve(records.size());
  for (const ResultRecord& r : records) {
    items.push_back(
        io::json::Object{}
            .add_int("index", static_cast<long long>(r.index))
            .add_string("hash", r.record.hash)
            .add_int("accept_without", r.record.accept_without)
            .add_int("accept_with", r.record.accept_with)
            .str());
  }
  return io::json::Object{}
      .add_string("type", "result")
      .add_string("worker", worker)
      .add_int("lease_id", static_cast<long long>(lease_id))
      .add_raw("records", io::json::array(items))
      .str();
}

std::string bye_to_json(std::string_view worker,
                        std::uint64_t cells_computed, double wall_seconds,
                        std::string_view metrics_json) {
  io::json::Object doc;
  doc.add_string("type", "bye")
      .add_string("worker", worker)
      .add_int("cells_computed", static_cast<long long>(cells_computed))
      .add_number("wall_seconds", wall_seconds);
  if (!metrics_json.empty()) doc.add_raw("metrics", metrics_json);
  return doc.str();
}

std::vector<ResultRecord> parse_result_records(
    const io::json::Value& request) {
  std::vector<ResultRecord> records;
  const io::json::Value& array = request.at("records");
  records.reserve(array.items().size());
  for (const io::json::Value& item : array.items()) {
    records.push_back(
        ResultRecord{static_cast<std::size_t>(item.at("index").as_uint64()),
                     campaign::record_from_json(item)});
  }
  return records;
}

}  // namespace ftmc::fleet
