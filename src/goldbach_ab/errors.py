"""Exception types shared across the toolkit."""


class UsageError(ValueError):
    """Raised when an operation is called outside its supported domain.

    The command line maps this to exit code 2.
    """


class NotAPureAProduct(ValueError):
    """Raised when an odd number has a prime factor that is no A-prime of the
    even target: one shared with the target, which is exactly what makes the
    number B-type, or one prime to it that the table leaves unmarked.

    Such a number cannot be written over the basis of A-primes.
    """

    def __init__(self, value: int, offending_prime: int):
        self.value = value
        self.offending_prime = offending_prime
        super().__init__(
            f"{value} has prime factor {offending_prime}, no A-prime of the even target"
        )


class CounterexampleFound(AssertionError):
    """An invariant the verifiers exist to test actually broke.

    Carries a machine-readable witness so claim evaluators can convert the
    breach into a failing outcome instead of a crash.
    """

    def __init__(self, message: str, witness: dict):
        self.witness = witness
        super().__init__(message)
