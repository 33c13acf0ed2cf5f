package fix

import "testing"

func TestFixture(t *testing.T) {
	_ = Config{Tested: 1}
}
