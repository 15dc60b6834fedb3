// Fixture: value sorts, stable sorts and other libraries' sorts must
// not fire det-sort-ties even under `output-scope on`.
#include <algorithm>
#include <vector>

namespace mine {
template <typename It, typename Less>
void sort(It first, It last, Less less) {
  std::stable_sort(first, last, less);
}
}  // namespace mine

void rank(std::vector<double>& costs, std::vector<int>& ids) {
  std::sort(costs.begin(), costs.end());  // equal doubles are identical
  std::nth_element(ids.begin(), ids.begin() + 1, ids.end());
  std::stable_sort(ids.begin(), ids.end(), [](int a, int b) {
    return a / 10 < b / 10;  // ties keep their input order
  });
  mine::sort(ids.begin(), ids.end(), [](int a, int b) { return a < b; });
}
