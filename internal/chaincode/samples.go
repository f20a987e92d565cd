package chaincode

import "fmt"

// Counter is the Table II workload (paper §V-D): "a simple chaincode that
// increments one of 100 integer values initialized to 0". Incrementing
// requires reading the current value, so two increments simulated over the
// same base version produce a validation-time conflict; the first committed
// one wins.
type Counter struct{}

// Name implements Chaincode.
func (Counter) Name() string { return "counter" }

// Invoke implements Chaincode. Operations:
//
//	incr <key>        read key, write key+1
//	get  <key>        read key (read-only transaction)
func (Counter) Invoke(stub Stub, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("%w: want op and key", ErrBadArgs)
	}
	op, key := args[0], args[1]
	switch op {
	case "incr":
		raw, err := stub.GetState(key)
		if err != nil {
			return err
		}
		v, err := DecodeUint64(raw)
		if err != nil {
			return err
		}
		return stub.PutState(key, EncodeUint64(v+1))
	case "get":
		_, err := stub.GetState(key)
		return err
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadArgs, op)
	}
}
