// Fixture: unordered-container iteration in every shape the rule covers.
// Expected: [nondet-unordered-iter] for the iterator loop, the
// std::accumulate call, and the range-for over a member (type resolved
// through the class, not the loop line), and for the range-for and the
// iterator loop over a local.
#include <numeric>
#include <unordered_map>

struct Stats {
  std::unordered_map<int, double> by_station_;

  double sum_iterator_loop() {
    double total = 0.0;
    for (auto it = by_station_.begin(); it != by_station_.end(); ++it) {
      total += it->second;
    }
    return total;
  }

  double sum_accumulate() {
    return std::accumulate(by_station_.begin(), by_station_.end(), 0.0,
                           [](double acc, const auto& kv) {
                             return acc + kv.second;
                           });
  }

  double sum_range_for() {
    double total = 0.0;
    for (const auto& kv : by_station_) {
      total += kv.second;
    }
    return total;
  }
};

int sum_local_range_for() {
  std::unordered_map<int, int> nav_by_node{{1, 2}, {3, 4}};
  int sum = 0;
  for (const auto& entry : nav_by_node) {
    sum += entry.second;
  }
  return sum;
}

int sum_local_iterator_loop() {
  std::unordered_map<int, int> nav_by_node{{1, 2}, {3, 4}};
  int sum = 0;
  for (auto it = nav_by_node.begin(); it != nav_by_node.end(); ++it) {
    sum += it->second;
  }
  return sum;
}
